package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads a process's high-water resident set size (VmHWM) from
// /proc, in MB; pid "self" names the calling process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// resetPeakRSS starts a per-round peak-RSS reading: it collects the heap
// twice (the second cycle also empties sync.Pool caches), returns the freed
// memory to the OS and resets the kernel's high-water mark, so the next
// peakRSSMB("self") sees one round on top of the live set-up data.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// mix64 is the splitmix64 finalizer, the per-embedding hash behind the
// order-independent checksums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// embHash hashes one embedding (vertex order matters).
func embHash(emb []uint32) uint64 {
	h := uint64(len(emb))
	for _, v := range emb {
		h = mix64(h ^ uint64(v))
	}
	return h
}
