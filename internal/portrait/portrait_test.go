package portrait

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/wiot-security/sift/internal/dsp"
)

func mustNew(t *testing.T, ecg, abp []float64, r, s []int, pairs [][2]int) *Portrait {
	t.Helper()
	p, err := New(ecg, abp, r, s, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewNormalizes(t *testing.T) {
	p := mustNew(t, []float64{0, 5, 10}, []float64{100, 150, 200}, nil, nil, nil)
	if p.E[0] != 0 || p.E[2] != 1 || p.A[0] != 0 || p.A[2] != 1 {
		t.Errorf("normalization endpoints wrong: E=%v A=%v", p.E, p.A)
	}
	if p.E[1] != 0.5 || p.A[1] != 0.5 {
		t.Errorf("midpoints = %v, %v, want 0.5", p.E[1], p.A[1])
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]float64{1}, []float64{1, 2}, nil, nil, nil); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := New(nil, nil, nil, nil, nil); !errors.Is(err, dsp.ErrEmptySignal) {
		t.Error("empty signals should return ErrEmptySignal")
	}
	if _, err := New([]float64{1, 2}, []float64{3, 4}, []int{5}, nil, nil); err == nil {
		t.Error("out-of-range R peak should error")
	}
	if _, err := New([]float64{1, 2}, []float64{3, 4}, nil, []int{-1}, nil); err == nil {
		t.Error("negative systolic peak should error")
	}
	if _, err := New([]float64{1, 2}, []float64{3, 4}, nil, nil, [][2]int{{0, 9}}); err == nil {
		t.Error("out-of-range pair should error")
	}
}

func TestPointAccessors(t *testing.T) {
	p := mustNew(t, []float64{0, 1, 2}, []float64{0, 2, 4}, []int{1}, []int{2}, [][2]int{{1, 2}})
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
	rp := p.Points(nil, p.RPeaks)
	if len(rp) != 1 || rp[0] != (Point{X: 0.5, Y: 0.5}) {
		t.Errorf("RPoints = %v", rp)
	}
	sp := p.Points(nil, p.SysPeaks)
	if len(sp) != 1 || sp[0] != (Point{X: 1, Y: 1}) {
		t.Errorf("SysPoints = %v", sp)
	}
	pp := p.PairPoints(nil)
	if len(pp) != 1 || pp[0][0] != (Point{X: 0.5, Y: 0.5}) || pp[0][1] != (Point{X: 1, Y: 1}) {
		t.Errorf("PairPoints = %v", pp)
	}
}

func TestGridCountsSumToTotal(t *testing.T) {
	ecg := []float64{0, 0.1, 0.5, 0.9, 1, 0.3, 0.7}
	abp := []float64{1, 0.2, 0.4, 0.8, 0, 0.6, 0.5}
	p := mustNew(t, ecg, abp, nil, nil, nil)
	m, err := p.Grid(10)
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	for _, c := range m.Counts {
		sum += c
	}
	if sum != p.Len() || m.Total != p.Len() {
		t.Errorf("counts sum %d, total %d, want %d", sum, m.Total, p.Len())
	}
}

func TestGridBoundaryBinning(t *testing.T) {
	// Two points exactly at the corners must land in the first and last cells.
	p := mustNew(t, []float64{0, 1}, []float64{0, 1}, nil, nil, nil)
	m, err := p.Grid(5)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 {
		t.Error("(0,0) point should land in cell (0,0)")
	}
	if m.At(4, 4) != 1 {
		t.Error("(1,1) point should land in cell (n-1,n-1)")
	}
}

func TestGridInvalidSize(t *testing.T) {
	p := mustNew(t, []float64{0, 1}, []float64{0, 1}, nil, nil, nil)
	for _, n := range []int{0, -3} {
		if _, err := p.Grid(n); err == nil {
			t.Errorf("grid size %d should error", n)
		}
	}
}

func TestColumnAverages(t *testing.T) {
	// Construct a portrait with all points in column 0 (a=0).
	n := 4
	ecg := []float64{0, 0.3, 0.6, 1}
	abp := []float64{0, 0, 0, 0} // constant → normalizes to all 0 → column 0
	p := mustNew(t, ecg, abp, nil, nil, nil)
	m, err := p.Grid(n)
	if err != nil {
		t.Fatal(err)
	}
	col := m.ColumnAverages(nil)
	if col[0] != 1 { // 4 points over 4 cells in the column
		t.Errorf("column 0 average = %v, want 1", col[0])
	}
	for j := 1; j < n; j++ {
		if col[j] != 0 {
			t.Errorf("column %d average = %v, want 0", j, col[j])
		}
	}
}

func TestSpatialFillingIndexExtremes(t *testing.T) {
	n := 5
	// All points in one cell → SFI = n².
	concentrated := mustNew(t, []float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}, nil, nil, nil)
	m, err := concentrated.Grid(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SpatialFillingIndex(); math.Abs(got-float64(n*n)) > 1e-9 {
		t.Errorf("concentrated SFI = %v, want %d", got, n*n)
	}

	// One point in every cell → SFI = 1.
	uniform := &Matrix{N: n, Counts: make([]int, n*n)}
	for i := range uniform.Counts {
		uniform.Counts[i] = 1
		uniform.Total++
	}
	if got := uniform.SpatialFillingIndex(); math.Abs(got-1) > 1e-9 {
		t.Errorf("uniform SFI = %v, want 1", got)
	}

	empty := &Matrix{N: n, Counts: make([]int, n*n)}
	if empty.SpatialFillingIndex() != 0 {
		t.Error("empty SFI should be 0")
	}
}

func TestQuickGridInvariants(t *testing.T) {
	f := func(raw []float64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		p, err := New(clean, clean, nil, nil, nil)
		if err != nil {
			return false
		}
		m, err := p.Grid(n)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range m.Counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		if sum != len(clean) {
			return false
		}
		sfi := m.SpatialFillingIndex()
		return sfi >= 1-1e-9 && sfi <= float64(n*n)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
