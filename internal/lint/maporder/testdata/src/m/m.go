// Package m is a maporder fixture (registered in maporder.Packages):
// order-sensitive map iteration must be flagged, the sorted-keys idiom
// and order-insensitive bodies must not.
package m

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

func appendValues(in map[string]int) []int {
	var out []int
	for _, v := range in {
		out = append(out, v) // want "appends to outer slice out"
	}
	return out
}

func unsortedKeys(in map[string]int) []string {
	var keys []string
	for k := range in {
		keys = append(keys, k) // want "appends to outer slice keys"
	}
	return keys
}

func sortedKeysIdiom(in map[string]int) []string {
	keys := make([]string, 0, len(in))
	for k := range in {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedViaSlices(in map[int]string) []int {
	var keys []int
	for k := range in {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

type siteStats struct {
	Site  string
	Fired int
}

type snapshot struct{ Sites []siteStats }

func sortedValuesIdiom(in map[string]int) snapshot {
	// Values appended in map order, then sorted: faultinject.Snapshot.
	var st snapshot
	for site, fired := range in {
		st.Sites = append(st.Sites, siteStats{Site: site, Fired: fired})
	}
	sort.Slice(st.Sites, func(i, j int) bool { return st.Sites[i].Site < st.Sites[j].Site })
	return st
}

func valuesSortedElsewhere(in map[string]int) ([]int, []int) {
	var vals, other []int
	for _, v := range in {
		vals = append(vals, v) // want "appends to outer slice vals"
	}
	sort.Ints(other)
	return vals, other
}

func floatAccumulate(in map[string]float64) float64 {
	var total float64
	for _, v := range in {
		total += v // want "accumulates floating-point values into total"
	}
	return total
}

func floatAccumulateLonghand(in map[string]float64) float64 {
	var total float64
	for _, v := range in {
		total = total + v // want "accumulates floating-point values into total"
	}
	return total
}

func intAccumulateOK(in map[string]int) int {
	// Integer addition is associative and commutative: order-safe.
	var total int
	for _, v := range in {
		total += v
	}
	return total
}

func emit(in map[string]int) {
	for k, v := range in {
		fmt.Println(k, v) // want "emits output via fmt.Println"
	}
}

func buildString(in map[string]string) string {
	var b strings.Builder
	for k := range in {
		b.WriteString(k) // want "feeds b.WriteString"
	}
	return b.String()
}

func hashKey(in map[string]string) uint64 {
	h := fnv.New64a()
	for k, v := range in {
		h.Write([]byte(k + v)) // want "feeds h.Write"
	}
	return h.Sum64()
}

func copyMapOK(in map[string]int) map[string]int {
	// Map-to-map copies are order-insensitive.
	out := make(map[string]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func rangeSliceOK(in []float64) float64 {
	var total float64
	for _, v := range in {
		total += v
	}
	return total
}
