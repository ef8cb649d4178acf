package workload

import (
	"sort"
	"testing"
)

func TestActivitySkewValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 10, ActivitySkew: -1}, newEigen(t, 10)); err == nil {
		t.Fatal("negative skew accepted")
	}
}

func TestActivitySkewConcentratesConsumers(t *testing.T) {
	run := func(skew float64) []int {
		e, err := NewEngine(Config{Seed: 51, NumPeers: 40, ActivitySkew: skew}, newEigen(t, 40))
		if err != nil {
			t.Fatal(err)
		}
		log := tapInteractions(e)
		e.Run(30)
		counts := make([]int, 40)
		for _, i := range *log {
			counts[i.consumer]++
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		return counts
	}
	uniform := run(0)
	skewed := run(1.2)
	totalU, totalS := 0, 0
	for i := 0; i < 4; i++ { // top-4 consumers' share
		totalU += uniform[i]
		totalS += skewed[i]
	}
	if totalS <= totalU {
		t.Fatalf("Zipf activity not concentrated: top-4 %d vs uniform %d", totalS, totalU)
	}
}

func TestActivityOrderDecorrelatesFromIDs(t *testing.T) {
	e, err := NewEngine(Config{Seed: 53, NumPeers: 60, ActivitySkew: 1.5}, newEigen(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	log := tapInteractions(e)
	e.Run(20)
	counts := make([]int, 60)
	for _, i := range *log {
		counts[i.consumer]++
	}
	// The most active consumer must not always be peer 0 (the identity
	// permutation decorrelates activity rank from peer id).
	maxID, maxC := 0, 0
	for id, c := range counts {
		if c > maxC {
			maxID, maxC = id, c
		}
	}
	if maxID == 0 {
		// Possible but unlikely; check a second seed before failing.
		e2, err := NewEngine(Config{Seed: 54, NumPeers: 60, ActivitySkew: 1.5}, newEigen(t, 60))
		if err != nil {
			t.Fatal(err)
		}
		log2 := tapInteractions(e2)
		e2.Run(20)
		counts2 := make([]int, 60)
		for _, i := range *log2 {
			counts2[i.consumer]++
		}
		max2, c2 := 0, 0
		for id, c := range counts2 {
			if c > c2 {
				max2, c2 = id, c
			}
		}
		if max2 == 0 {
			t.Fatal("activity always concentrated on peer 0 — permutation missing")
		}
	}
}
