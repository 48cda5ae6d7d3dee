// Package features implements SIFT's three feature extractors.
//
// The paper deploys three detector versions that differ only in feature
// extraction:
//
//   - Original — the full 8-feature set of Table I: three matrix features
//     computed from the n×n occupancy grid (spatial filling index, standard
//     deviation of column averages, trapezoidal AUC of column averages)
//     plus five geometric features using angles and Euclidean distances of
//     the characteristic points (requires sqrt/atan — the C math library).
//   - Simplified — same 8 features but reformulated to avoid the math
//     library: variance instead of standard deviation, the folded
//     (b−a)/(2N)·Σ form of the AUC, slopes y/x instead of angles, and
//     squared distances instead of distances.
//   - Reduced — only the five Simplified geometric features.
//
// All three extractors here are float64 reference implementations: they
// are the "MATLAB" gold standard of Table II. The device-side (Amulet)
// counterparts run as fixed-point bytecode in internal/amulet/program and
// are tested against these references.
package features

import (
	"fmt"
	"math"
	"slices"

	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/portrait"
)

// Observability handles for the extraction hot path (one span + one
// counter add per window; free when collection is disabled).
var (
	obsExtract   = obs.NewTimer("sift.features.extract")
	obsExtracted = obs.NewCounter("sift.features.extracted")
)

// Version selects a feature extractor variant.
type Version int

const (
	// Original is the full implementation (8 features, math library).
	Original Version = iota + 1
	// Simplified avoids sqrt/trig (8 features).
	Simplified
	// Reduced keeps only the 5 simplified geometric features.
	Reduced
)

// Versions lists all variants in paper order.
var Versions = []Version{Original, Simplified, Reduced}

// String returns the paper's name for the version.
func (v Version) String() string {
	switch v {
	case Original:
		return "Original"
	case Simplified:
		return "Simplified"
	case Reduced:
		return "Reduced"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// Dim returns the feature dimensionality of the version.
func (v Version) Dim() int {
	switch v {
	case Original, Simplified:
		return 8
	case Reduced:
		return 5
	default:
		return 0
	}
}

// Names returns human-readable feature names in extraction order.
func (v Version) Names() []string {
	matrix := []string{
		"spatial filling index",
		"std of column averages",
		"AUC of column averages",
	}
	geomOriginal := []string{
		"mean R-peak angle",
		"mean systolic-peak angle",
		"mean R-peak distance to origin",
		"mean systolic-peak distance to origin",
		"mean R-systolic pair distance",
	}
	geomSimplified := []string{
		"mean R-peak slope",
		"mean systolic-peak slope",
		"mean squared R-peak distance to origin",
		"mean squared systolic-peak distance to origin",
		"mean squared R-systolic pair distance",
	}
	switch v {
	case Original:
		return append(matrix, geomOriginal...)
	case Simplified:
		matrix[1] = "variance of column averages"
		matrix[2] = "simplified AUC of column averages"
		return append(matrix, geomSimplified...)
	case Reduced:
		return geomSimplified
	default:
		return nil
	}
}

// Extract computes the version's feature vector from a portrait using the
// given grid size (the paper fixes gridN = 50; see portrait.DefaultGridSize).
func Extract(v Version, p *portrait.Portrait, gridN int) ([]float64, error) {
	var s Scratch
	return s.Extract(nil, v, p, gridN)
}

// Scratch holds the buffers feature extraction works in: the occupancy
// grid, its column averages and the characteristic points. The zero value
// is ready to use; reusing one across calls makes extraction
// allocation-free. A Scratch is not safe for concurrent use.
type Scratch struct {
	grid       portrait.Matrix
	cols       []float64
	rPts, sPts []portrait.Point
	pairPts    [][2]portrait.Point
}

// Extract is the package-level Extract working in s's buffers and writing
// the feature vector over dst's contents.
func (s *Scratch) Extract(dst []float64, v Version, p *portrait.Portrait, gridN int) ([]float64, error) {
	span := obsExtract.Start()
	defer span.End()
	obsExtracted.Add(1)
	f := slices.Grow(dst[:0], v.Dim())
	switch v {
	case Original:
		if err := s.matrix(p, gridN); err != nil {
			return nil, err
		}
		s.points(p)
		return append(f,
			s.grid.SpatialFillingIndex(),
			std(s.cols),
			trapezoid(s.cols),
			meanAngle(s.rPts),
			meanAngle(s.sPts),
			meanDistOrigin(s.rPts),
			meanDistOrigin(s.sPts),
			meanPairDist(s.pairPts),
		), nil
	case Simplified:
		if err := s.matrix(p, gridN); err != nil {
			return nil, err
		}
		f = append(f,
			s.grid.SpatialFillingIndex(),
			variance(s.cols),
			simplifiedAUC(s.cols),
		)
		return s.appendReduced(f, p), nil
	case Reduced:
		return s.appendReduced(f, p), nil
	default:
		return nil, fmt.Errorf("features: unknown version %d", int(v))
	}
}

// matrix bins p into the scratch grid and takes its column averages.
func (s *Scratch) matrix(p *portrait.Portrait, gridN int) error {
	if err := p.GridInto(&s.grid, gridN); err != nil {
		return err
	}
	s.cols = s.grid.ColumnAverages(s.cols)
	return nil
}

// points gathers p's R, systolic and paired points into the scratch.
func (s *Scratch) points(p *portrait.Portrait) {
	s.rPts = p.Points(s.rPts, p.RPeaks)
	s.sPts = p.Points(s.sPts, p.SysPeaks)
	s.pairPts = p.PairPoints(s.pairPts)
}

// appendReduced appends the five Simplified geometric features to f.
func (s *Scratch) appendReduced(f []float64, p *portrait.Portrait) []float64 {
	s.points(p)
	return append(f,
		meanSlope(s.rPts),
		meanSlope(s.sPts),
		meanSquaredDistOrigin(s.rPts),
		meanSquaredDistOrigin(s.sPts),
		meanSquaredPairDist(s.pairPts),
	)
}

// slopeCap bounds the slope y/x when x approaches zero, mirroring the
// saturation the fixed-point device implementation exhibits rather than
// letting the reference blow up to ±Inf.
const slopeCap = 128.0

func capSlope(s float64) float64 {
	if s > slopeCap {
		return slopeCap
	}
	if s < -slopeCap {
		return -slopeCap
	}
	return s
}

func meanAngle(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += math.Atan2(p.Y, p.X)
	}
	return s / float64(len(pts))
}

func meanSlope(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		if p.X == 0 {
			// Mirror the device's saturating divide: sign follows y.
			if p.Y >= 0 {
				s += slopeCap
			} else {
				s -= slopeCap
			}
			continue
		}
		s += capSlope(p.Y / p.X)
	}
	return s / float64(len(pts))
}

func meanDistOrigin(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += math.Hypot(p.X, p.Y)
	}
	return s / float64(len(pts))
}

func meanSquaredDistOrigin(pts []portrait.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		s += p.X*p.X + p.Y*p.Y
	}
	return s / float64(len(pts))
}

func meanPairDist(pairs [][2]portrait.Point) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, pr := range pairs {
		s += math.Hypot(pr[0].X-pr[1].X, pr[0].Y-pr[1].Y)
	}
	return s / float64(len(pairs))
}

func meanSquaredPairDist(pairs [][2]portrait.Point) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var s float64
	for _, pr := range pairs {
		dx := pr[0].X - pr[1].X
		dy := pr[0].Y - pr[1].Y
		s += dx*dx + dy*dy
	}
	return s / float64(len(pairs))
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

func std(x []float64) float64 { return math.Sqrt(variance(x)) }

func trapezoid(y []float64) float64 {
	if len(y) < 2 {
		return 0
	}
	var area float64
	for i := 1; i < len(y); i++ {
		area += (y[i] + y[i-1]) / 2
	}
	return area
}

// simplifiedAUC is the paper's (b−a)/(2N)·Σ(f(x_n)+f(x_{n+1})) formulation,
// which on unit spacing equals the trapezoid rule but needs one multiply
// instead of a division per step — the property that made it MCU-friendly.
func simplifiedAUC(y []float64) float64 {
	n := len(y) - 1
	if n < 1 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += y[i] + y[i+1]
	}
	return s / 2
}
