package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mcu"
)

func testPlan(seed int64) plan {
	return genPlan(seed, 200, daemonPool(), mcu.TableIVSet())
}

func TestGenPlanSameSeedSameInputs(t *testing.T) {
	a, b := testPlan(7), testPlan(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different plans")
	}
}

func TestGenPlanDifferentSeedDifferentInputs(t *testing.T) {
	a, b := testPlan(7), testPlan(8)
	if reflect.DeepEqual(a.reqs, b.reqs) {
		t.Error("different seeds produced the same request sequence")
	}
	if reflect.DeepEqual(a.boards, b.boards) {
		t.Error("different seeds produced the same board set")
	}
}

func TestGenPlanMixIsExactPerBlock(t *testing.T) {
	p := testPlan(3)
	if len(p.reqs) != 200 {
		t.Fatalf("got %d requests, want 200", len(p.reqs))
	}
	for start := 0; start < len(p.reqs); start += blockSize {
		var counts [numClasses]int
		for _, r := range p.reqs[start : start+blockSize] {
			counts[r.class]++
		}
		if counts != mixBlock {
			t.Fatalf("block at %d has class counts %v, want %v", start, counts, mixBlock)
		}
	}
}

func TestGenPlanQueries(t *testing.T) {
	p := testPlan(11)
	seen := map[string]bool{}
	for _, q := range p.hot {
		seen[q.key()] = true
	}
	boards := map[string]bool{}
	for _, r := range p.reqs {
		switch r.class {
		case classHot:
			if !seen[r.q.key()] || len(r.q.Kernels) != hotKernels {
				t.Errorf("hot request %v is not a hot query", r.q)
			}
		case classFresh:
			if seen[r.q.key()] {
				t.Errorf("fresh query %v repeats an earlier query", r.q)
			}
			seen[r.q.key()] = true
			if len(r.q.Kernels) != freshKernels || r.q.Archs != "" {
				t.Errorf("fresh query %v has the wrong shape", r.q)
			}
		case classNewBoard:
			b := p.boards[r.board]
			if boards[b.Name] {
				t.Errorf("board %s is used twice", b.Name)
			}
			boards[b.Name] = true
			if r.q.Archs != "tableiv,"+b.Name || len(r.q.Kernels) != newBoardKernels {
				t.Errorf("new-board query %v has the wrong shape", r.q)
			}
			if err := b.Validate(); err != nil {
				t.Errorf("generated board %s is invalid: %v", b.Name, err)
			}
			if strings.ContainsAny(b.Name, ", ") {
				t.Errorf("board name %q is not a query token", b.Name)
			}
		}
	}
}
