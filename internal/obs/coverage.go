package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Coverage export: the fuzzing engine steers mutation energy by the
// *shape* of a run, not its exact cost — two runs that exercised the same
// encoder and solver paths a comparable number of times are the same
// coverage point even if raw counts differ by scheduling noise.
// BucketLog2 coarsens counters into log2 buckets and Signature renders a
// whole registry snapshot as one canonical, comparable string.

// BucketLog2 maps a counter value to a coarse bucket: 0 -> 0, and v > 0 to
// 1+floor(log2(v)). Negative values (which the registry never produces,
// but deltas might) clamp to 0.
func BucketLog2(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Signature renders a snapshot (name -> value) as a canonical
// "name:bucket" list, sorted by name, with zero-valued instruments
// omitted. Equal signatures mean "the run exercised the same structural
// paths at the same order of magnitude".
func Signature(snap map[string]int64) string {
	keys := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, name := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", name, BucketLog2(snap[name]))
	}
	return b.String()
}

// Delta subtracts an earlier snapshot from a later one, keeping only the
// instruments that moved. It lets a caller share one registry across many
// runs and still extract per-run signatures.
func Delta(later, earlier map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(later))
	for name, v := range later {
		if d := v - earlier[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}
