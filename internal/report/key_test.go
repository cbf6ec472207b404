package report

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
)

func suiteSpec(t testing.TB, name string) core.Spec {
	t.Helper()
	s, ok := core.ByName(name)
	if !ok {
		t.Fatalf("suite kernel %q not registered", name)
	}
	return s
}

// The content keys name every on-disk record and every memo entry, so
// their bytes are a compatibility contract: a changed key orphans every
// warm cache directory. These digests pin the key derivation itself,
// not just its stability within one process.
func TestCellKeysStable(t *testing.T) {
	mad := suiteSpec(t, "madgwick")
	mah := suiteSpec(t, "mahony")
	offCfg := harness.DefaultConfig()
	offCfg.CacheOn = false
	custom := core.Spec{Name: "custom q", Stage: core.Control, Category: "cat|x", Dataset: "ds",
		Prec: mcu.PrecFixed, FLOPs: -3, M7Only: true, MinSRAMKB: 7}

	for _, tc := range []struct {
		name, got, want string
	}{
		{"cell M4 on", CellKey(mad, mcu.M4, true, ""),
			"cell-5a01c053034f4db809fdd6b9b227417f0f54d160456061a762d6843bdb32bd1f"},
		{"cell M4 off", CellKey(mad, mcu.M4, false, ""),
			"cell-517d54e67ccd767f760577811879ac5ad7d0e3b6c2f0010ee1a8c2adfca508d2"},
		{"cell M4 on trace", CellKey(mad, mcu.M4, true, "trace+fp1"),
			"cell-a25b5abd8c3657417885565f2529dcc6cbf9413d9332040b87c555e780b1bc24"},
		{"cell M4 off trace", CellKey(mad, mcu.M4, false, "trace+fp1"),
			"cell-d4ea03d18b5e1c9f0a7111d8386f234e2a10cf7728ba2a32b527d396196527b1"},
		{"cell M33 on", CellKey(mad, mcu.TableIVSet()[1], true, ""),
			"cell-d47d1339a637f4388804a7b161d0b1d2ea2da357c3f1a966343ac7598bf8539b"},
		{"cell M7 on", CellKey(mad, mcu.TableIVSet()[2], true, ""),
			"cell-e5e73ca1a014a720f3258044de6a66ab53767e45890401deb5fba853142baa3a"},
		{"static", StaticCellKey(mad),
			"cell-7175ac24513626ba9a36c538a7563ccb6152fc4736a96c8f4f4ac2558c18bd1a"},
		{"static sift", StaticCellKey(suiteSpec(t, "sift")),
			"cell-218cb4e9000488815712d97b637b0571d764a80adc29724344a97b576e5fb7ba"},
		{"static fly-ekf", StaticCellKey(suiteSpec(t, "fly-ekf (sync)")),
			"cell-df48145ef973aab781558fb019891d8ae69ae3c3604ef37846d9bf2da4cf4a58"},
		{"static custom", StaticCellKey(custom),
			"cell-3487b4b8d1deb8d8a8f562837d84146d1fd5629cc40afb03ad5b741ec5aa43e8"},
		{"cell custom M4 off", CellKey(custom, mcu.M4, false, ""),
			"cell-a013be0b91cbf4c17121005568c0cd9cc0ae4636b3a119c7987346b03c38c833"},
		{"sweep", SweepKey([]core.Spec{mad}, mcu.TableIVSet(), harness.DefaultConfig(), ""),
			"sweep-e509fcc05aed3717b2ac4b8ad41c5ef65a8696792570da69a1187c7ff398b901"},
		{"sweep trace", SweepKey([]core.Spec{mad}, mcu.TableIVSet(), harness.DefaultConfig(), "trace+fp1"),
			"sweep-dd0fced50d5e839f4b2b2615b07375de2015bf3578f0726d89a903036e5e84ad"},
		{"sweep two kernels", SweepKey([]core.Spec{mad, mah}, mcu.TableIVSet(), harness.DefaultConfig(), ""),
			"sweep-7ad503921864c8f545340fb60fef26b5898df0d35d90d7356280b465714828e7"},
		{"sweep cache off", SweepKey([]core.Spec{mad}, []mcu.Arch{mcu.M4}, offCfg, ""),
			"sweep-48c7c17c352091a0dc31f8571190c4d0f22ef7922d426fc96c00d5ec49162b81"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// The board-line memo must never hand one board another's line: after
// the memo is warm with a reference board, a board differing in any
// single ModelParams field gets its own key, and every float field the
// line prints keeps its sign of zero (map equality has -0 == +0).
func TestBoardLineMemoDistinguishesBoards(t *testing.T) {
	mad := suiteSpec(t, "madgwick")
	base := mcu.M4
	baseKey := CellKey(mad, base, true, "")
	mt := reflect.TypeOf(base.Model)
	for i := 0; i < mt.NumField(); i++ {
		b := base
		f := reflect.ValueOf(&b.Model).Elem().Field(i)
		f.SetFloat(f.Float()*1.5 + 0.25)
		CellKey(mad, b, true, "") // warm the memo with the variant too
		if got := CellKey(mad, b, true, ""); got == baseKey {
			t.Errorf("ModelParams.%s changed but the cell key did not", mt.Field(i).Name)
		}
		if got, want := boardLine(b), string(appendBoard(nil, b)); got != want {
			t.Errorf("ModelParams.%s: memoized line %q, want %q", mt.Field(i).Name, got, want)
		}
	}

	var floats [][]int
	var walk func(rt reflect.Type, path []int)
	walk = func(rt reflect.Type, path []int) {
		for i := 0; i < rt.NumField(); i++ {
			p := append(append([]int{}, path...), i)
			switch ft := rt.Field(i).Type; ft.Kind() {
			case reflect.Float64:
				floats = append(floats, p)
			case reflect.Struct:
				walk(ft, p)
			}
		}
	}
	walk(reflect.TypeOf(base), nil)
	for _, p := range floats {
		pos, neg := base, base
		reflect.ValueOf(&pos).Elem().FieldByIndex(p).SetFloat(0)
		reflect.ValueOf(&neg).Elem().FieldByIndex(p).SetFloat(math.Copysign(0, -1))
		boardLine(pos)
		if got, want := boardLine(neg), string(appendBoard(nil, neg)); got != want {
			t.Errorf("field %v = -0: memoized line %q, want %q", p, got, want)
		}
	}
}

// A daemon sees boards it has never seen before, from many requests at
// once; the memo must stay bounded however many distinct boards pass
// through it, and keep serving correct lines while it starts over.
func TestBoardLineMemoBounded(t *testing.T) {
	mad := suiteSpec(t, "madgwick")
	const want = "cell-5a01c053034f4db809fdd6b9b227417f0f54d160456061a762d6843bdb32bd1f"
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < boardLineCap+7; i++ {
				b := mcu.M4
				b.Name = fmt.Sprintf("M4-memo-%d-%d", w, i)
				CellKey(mad, b, i%2 == 0, "")
				boardLines.Lock()
				n := len(boardLines.m)
				boardLines.Unlock()
				if n > boardLineCap {
					t.Errorf("memo holds %d lines, cap %d", n, boardLineCap)
					return
				}
				if got := CellKey(mad, mcu.M4, true, ""); got != want {
					t.Errorf("key during memo churn %s, want %s", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCellKey times one warm-path cell key: the board line is
// memoized, so this is the kernel line plus one SHA-256.
func BenchmarkCellKey(b *testing.B) {
	mad := suiteSpec(b, "madgwick")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CellKey(mad, mcu.M4, i%2 == 0, "")
	}
}
