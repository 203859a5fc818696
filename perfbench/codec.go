package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"ccba"
	"ccba/internal/acs"
	"ccba/internal/scenario"
	"ccba/internal/wire"
)

// codecPasses is how many timed passes the codec measurement makes over one
// instance's traffic; the median pass is reported.
const codecPasses = 15

// codecStats is the wire codec measured on one instance's real traffic.
type codecStats struct {
	msgs, bytes    int
	encode, decode time.Duration
}

// codecSink keeps the timed encode and decode loops from being optimised
// away.
var codecSink int

// decoderFor is the protocol's message decoder from the scenario registry.
// ACS has no registered decoder, because only the simulator runs it; its
// own acs.Decode stands in.
func decoderFor(p ccba.Protocol) (scenario.Decoder, error) {
	if p == ccba.ACS {
		return acs.Decode, nil
	}
	return scenario.DecoderFor(p)
}

// measureCodec times wire.Marshal and the protocol's decoder over the
// traffic one traced instance sent: message values with their send-time
// encoding on the simulators, data-frame payloads on the live cluster.
// Every message must first re-encode to its captured bytes, have length
// wire.Size, and survive decode and re-encode.
func measureCodec(p ccba.Protocol, c *capture) (codecStats, error) {
	dec, err := decoderFor(p)
	if err != nil {
		return codecStats{}, err
	}
	msgs, frames := c.msgs, c.frames
	if msgs == nil {
		msgs = make([]wire.Message, len(frames))
		for i, f := range frames {
			if msgs[i], err = dec(f); err != nil {
				return codecStats{}, fmt.Errorf("decode captured frame %d: %w", i, err)
			}
		}
	}
	st := codecStats{msgs: len(msgs)}
	for i, m := range msgs {
		enc := wire.Marshal(m)
		if !bytes.Equal(enc, frames[i]) {
			return st, fmt.Errorf("message %d (%T) re-encodes to different bytes", i, m)
		}
		if len(enc) != wire.Size(m) {
			return st, fmt.Errorf("message %d (%T): encoding has %d bytes, wire.Size says %d", i, m, len(enc), wire.Size(m))
		}
		back, err := dec(enc)
		if err != nil {
			return st, fmt.Errorf("decode message %d (%T): %w", i, m, err)
		}
		if !bytes.Equal(wire.Marshal(back), enc) {
			return st, fmt.Errorf("message %d (%T) does not survive decode and re-encode", i, m)
		}
		st.bytes += len(enc)
	}
	st.encode = medianPass(func() {
		for _, m := range msgs {
			codecSink += len(wire.Marshal(m))
		}
	})
	st.decode = medianPass(func() {
		for _, f := range frames {
			if m, err := dec(f); err == nil && m != nil {
				codecSink++
			}
		}
	})
	return st, nil
}

func medianPass(pass func()) time.Duration {
	d := make([]time.Duration, codecPasses)
	for i := range d {
		start := time.Now()
		pass()
		d[i] = time.Since(start)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}
