package detfix

// The sharded shard-merge idiom (netsim node stepping): workers fill
// per-shard private buffers indexed by shard number, then a serial loop
// merges them in shard order. No map is ranged and the merge order is the
// slice order, so detwalk reports nothing — this file pins the pattern as
// blessed.

type shardOut struct {
	events []int
}

// shardMerge steps contiguous ID shards on goroutines and merges the
// per-shard buffers serially in shard order: clean.
func shardMerge(n, workers int, step func(lo, hi int) []int) []int {
	per := (n + workers - 1) / workers
	outs := make([]shardOut, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		go func(w, lo, hi int) {
			outs[w] = shardOut{events: step(lo, hi)}
			done <- struct{}{}
		}(w, lo, hi)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	var merged []int
	for w := range outs { // slice range: shard order is the merge order
		merged = append(merged, outs[w].events...)
	}
	return merged
}

// shardMergeByMap keys the same per-shard buffers by shard number in a map
// and merges by ranging it: the merge order is Go's randomized map order,
// exactly the bug the slice-indexed idiom exists to prevent.
func shardMergeByMap(outs map[int]shardOut) []int {
	var merged []int
	for _, o := range outs { // want `range over map in deterministic package`
		merged = append(merged, o.events...)
	}
	return merged
}
