// Package portrait builds SIFT's two-dimensional signal portrait.
//
// A portrait is the normalized joint trajectory f(t) = (a(t), e(t)) of w
// time-units of synchronously measured ABP and ECG: each sample becomes a
// point in the unit square whose x coordinate is the normalized ABP value
// and whose y coordinate is the normalized ECG value. Because both signals
// are driven by the same cardiac process, a subject's portrait has a
// characteristic shape; SIFT's features summarize that shape.
package portrait

import (
	"fmt"
	"slices"

	"github.com/wiot-security/sift/internal/dsp"
)

// DefaultGridSize is the paper's portrait grid resolution (n = 50).
const DefaultGridSize = 50

// Point is one portrait point in the unit square.
type Point struct {
	X float64 // normalized ABP
	Y float64 // normalized ECG
}

// Portrait holds the normalized trajectory plus the characteristic points
// (R peaks, systolic peaks, and their pairing) expressed as sample indices
// into the trajectory.
type Portrait struct {
	A []float64 // normalized ABP, in [0,1]
	E []float64 // normalized ECG, in [0,1]

	RPeaks   []int    // sample indices of R peaks
	SysPeaks []int    // sample indices of systolic peaks
	Pairs    [][2]int // (R index, corresponding systolic index)
}

// New normalizes the two signals and assembles a portrait. The peak index
// slices must be ascending and within range; pairs associates each R peak
// with its corresponding systolic peak (as the paper's feature 8 needs).
func New(ecg, abp []float64, rPeaks, sysPeaks []int, pairs [][2]int) (*Portrait, error) {
	p := &Portrait{}
	if err := p.Build(ecg, abp, rPeaks, sysPeaks, pairs); err != nil {
		return nil, err
	}
	return p, nil
}

// Build is New assembling into p: it normalizes into p's A and E storage
// and keeps references to the peak slices. On error p is unspecified.
func (p *Portrait) Build(ecg, abp []float64, rPeaks, sysPeaks []int, pairs [][2]int) error {
	if len(ecg) != len(abp) {
		return fmt.Errorf("portrait: ECG (%d) and ABP (%d) lengths differ", len(ecg), len(abp))
	}
	if len(ecg) == 0 {
		return dsp.ErrEmptySignal
	}
	for _, i := range rPeaks {
		if i < 0 || i >= len(ecg) {
			return fmt.Errorf("portrait: R peak index %d out of range [0,%d)", i, len(ecg))
		}
	}
	for _, i := range sysPeaks {
		if i < 0 || i >= len(ecg) {
			return fmt.Errorf("portrait: systolic peak index %d out of range [0,%d)", i, len(ecg))
		}
	}
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= len(ecg) || pr[1] < 0 || pr[1] >= len(ecg) {
			return fmt.Errorf("portrait: pair %v out of range [0,%d)", pr, len(ecg))
		}
	}
	e, err := dsp.NormalizeInto(p.E, ecg)
	if err != nil {
		return fmt.Errorf("portrait: normalize ECG: %w", err)
	}
	a, err := dsp.NormalizeInto(p.A, abp)
	if err != nil {
		return fmt.Errorf("portrait: normalize ABP: %w", err)
	}
	p.A, p.E, p.RPeaks, p.SysPeaks, p.Pairs = a, e, rPeaks, sysPeaks, pairs
	return nil
}

// Len returns the number of trajectory points.
func (p *Portrait) Len() int { return len(p.A) }

// At returns the i-th trajectory point.
func (p *Portrait) At(i int) Point { return Point{X: p.A[i], Y: p.E[i]} }

// Points returns the portrait points at the sample indices idx (p.RPeaks
// or p.SysPeaks), written over dst's contents.
func (p *Portrait) Points(dst []Point, idx []int) []Point {
	out := slices.Grow(dst[:0], len(idx))
	for _, i := range idx {
		out = append(out, p.At(i))
	}
	return out
}

// PairPoints returns (R point, systolic point) tuples for each pairing,
// written over dst's contents.
func (p *Portrait) PairPoints(dst [][2]Point) [][2]Point {
	out := slices.Grow(dst[:0], len(p.Pairs))
	for _, pr := range p.Pairs {
		out = append(out, [2]Point{p.At(pr[0]), p.At(pr[1])})
	}
	return out
}

// Matrix is the n×n occupancy grid C over the unit square: C[i][j] counts
// trajectory points whose x falls in column j and y in row i.
type Matrix struct {
	N      int
	Counts []int // row-major, length N*N
	Total  int   // total points binned
}

// Grid bins the portrait's trajectory into an n×n occupancy matrix.
// Points at the upper boundary (value exactly 1) land in the last bin.
func (p *Portrait) Grid(n int) (*Matrix, error) {
	m := &Matrix{}
	if err := p.GridInto(m, n); err != nil {
		return nil, err
	}
	return m, nil
}

// GridInto is Grid binning into m, reusing m's Counts storage.
func (p *Portrait) GridInto(m *Matrix, n int) error {
	if n <= 0 {
		return fmt.Errorf("portrait: grid size %d must be positive", n)
	}
	m.Counts = slices.Grow(m.Counts[:0], n*n)[:n*n]
	clear(m.Counts)
	m.N, m.Total = n, 0
	for k := 0; k < p.Len(); k++ {
		col := binIndex(p.A[k], n)
		row := binIndex(p.E[k], n)
		m.Counts[row*n+col]++
		m.Total++
	}
	return nil
}

func binIndex(v float64, n int) int {
	i := int(v * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// At returns C[row][col].
func (m *Matrix) At(row, col int) int { return m.Counts[row*m.N+col] }

// ColumnAverages returns, for each column j, the mean count over the
// column's n cells — the series the matrix features are computed from —
// written over dst's contents.
func (m *Matrix) ColumnAverages(dst []float64) []float64 {
	out := slices.Grow(dst[:0], m.N)
	for j := 0; j < m.N; j++ {
		var s int
		for i := 0; i < m.N; i++ {
			s += m.At(i, j)
		}
		out = append(out, float64(s)/float64(m.N))
	}
	return out
}

// SpatialFillingIndex measures how concentrated the trajectory is on the
// grid: with p_ij = C[i][j]/Total, SFI = n² · Σ p_ij². A trajectory spread
// uniformly over all cells scores 1; one collapsed into a single cell
// scores n². An empty matrix scores 0.
func (m *Matrix) SpatialFillingIndex() float64 {
	if m.Total == 0 {
		return 0
	}
	var s float64
	tot := float64(m.Total)
	for _, c := range m.Counts {
		if c == 0 {
			continue // adds exactly +0
		}
		p := float64(c) / tot
		s += p * p
	}
	return float64(m.N) * float64(m.N) * s
}
