// Package obs is the deterministic observability layer: typed round-
// lifecycle events emitted by the simulator (at any stepping-worker count)
// and the live cluster through one nil-guarded Sink; a ring-buffered Recorder with
// canonical JSONL export whose content is a pure function of the seed; an
// explicitly non-deterministic TimingLog for wall-clock measurements; and
// the Telemetry counters behind cmd/cluster's expvar/pprof endpoint.
//
// Architecture: DESIGN.md §10 — the event taxonomy, the determinism
// boundary between the trace and timing channels, and the canonical order
// cmd/tracediff aligns on.
package obs
