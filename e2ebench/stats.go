package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
)

// tailGrid lists the percentiles the tail rule chooses from.
var tailGrid = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it may
// be reported as the tail.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailGrid that leaves at
// least minBeyond of n samples ranked above it. ok is false when even the
// median leaves fewer (n < 2·minBeyond); p is then 50.
func tailPercentile(n int) (p float64, ok bool) {
	p = 50
	for _, q := range tailGrid {
		if n-rank(q, n) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// rank is the 1-based nearest-rank index of percentile p among n samples,
// ceil(p·n/100), computed in integer tenths of a percent so 99.9·10000/100
// is exactly 9990.
func rank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	k := (tenths*n + 999) / 1000
	return max(1, min(k, n))
}

// percentile returns the nearest-rank percentile p of xs (xs need not be
// sorted; it is not modified). It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally accounts for the operations a run expected and the ones that did
// not complete correctly. Every expected update is one attempted
// operation; an update that was never aggregated, an evicted or rejected
// update, a client error, and a failed output check each count as one
// failure.
type tally struct {
	expected int
	failed   int
}

func (t *tally) add(o tally) {
	t.expected += o.expected
	t.failed += o.failed
}

// failedFrac is failed ÷ expected (1 when nothing was expected, so an empty
// run can never look clean).
func (t tally) failedFrac() float64 {
	if t.expected == 0 {
		return 1
	}
	return math.Min(1, float64(t.failed)/float64(t.expected))
}

// digest is the sha256 of a state vector's IEEE-754 bit patterns, so two
// states share a digest only when they are bit-identical.
func digest(state []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range state {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// configDigest is the sha256 of a workload config's JSON encoding.
func configDigest(cfg any) string {
	raw, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // configs are plain structs of numbers and strings
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
