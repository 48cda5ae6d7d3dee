package wiot

import (
	"errors"
	"fmt"
	"sync"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/peaks"
)

// Detector is the base station's pluggable classification back end; both
// the host-reference detector and the emulated-device detector satisfy it
// through small adapters.
//
// The station lends each window its own buffers: w.ECG, w.ABP, w.RPeaks,
// w.SysPeaks and w.Pairs are valid only until Classify returns, and the
// station overwrites them with the next window. An implementation that
// needs any of them afterwards must copy it.
type Detector interface {
	// Classify returns whether the window's ECG was altered.
	Classify(w dataset.Window) (bool, error)
}

// Alert is the base station's verdict on one window, forwarded to the sink.
type Alert struct {
	WindowIndex int
	Altered     bool
	SubjectID   string
}

// Sink receives base-station output. The paper's sink is a phone/tablet
// doing storage and visualization; here it is anything that accepts
// alerts.
type Sink interface {
	// Deliver hands one alert to the sink.
	Deliver(Alert)
}

// MemorySink is an in-memory Sink that records every alert.
type MemorySink struct {
	mu     sync.Mutex
	alerts []Alert
}

var _ Sink = (*MemorySink)(nil)

// Deliver implements Sink.
func (s *MemorySink) Deliver(a Alert) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alerts = append(s.alerts, a)
}

// Alerts returns a copy of everything delivered so far.
func (s *MemorySink) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// StationConfig parameterizes a base station.
type StationConfig struct {
	SubjectID  string
	SampleRate float64 // Hz
	WindowSec  float64 // detector window (default 3 s)
	Detector   Detector
	Sink       Sink
	// DetectPeaksAtRuntime switches on the station-side peak detectors
	// (the paper pre-stored peak indexes; the runtime path is the "simple
	// extension" it describes). When false, windows carry no peaks and
	// only matrix features discriminate.
	DetectPeaksAtRuntime bool
}

// BaseStation assembles synchronized ECG/ABP windows from sensor frames
// and runs the detector on each completed window. It is the Amulet's role
// in Fig 1.
//
// The station owns every buffer a window passes through: the two sample
// streams the window is cut from, the runtime R detector and the
// systolic/pair scratch. A window handed to the Detector borrows them, so
// in steady state classifying a window allocates nothing on this side of
// the Detector interface.
type BaseStation struct {
	cfg    StationConfig
	wlen   int
	maxLag int // R→systolic pairing bound in samples

	mu        sync.Mutex
	ecg       sensorStream
	abp       sensorStream
	rdet      *peaks.RDetector // nil unless DetectPeaksAtRuntime
	sysPeaks  []int
	pairs     [][2]int
	seqErrors int
	concealed int // samples synthesized to cover lost frames
	stale     int // duplicate/out-of-order frames dropped
	windows   int
}

// sensorStream is one sensor's reassembly state.
type sensorStream struct {
	samples  []float64 // received and concealed samples not yet windowed
	next     uint32    // sequence number expected next
	synced   bool      // first frame seen; next is meaningful
	last     float64   // last sample received, held to conceal losses
	frameLen int       // sample count of the last frame received
}

// NewBaseStation validates the configuration and builds a station.
func NewBaseStation(cfg StationConfig) (*BaseStation, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("wiot: sample rate %.3g must be positive", cfg.SampleRate)
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = dataset.WindowSec
	}
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("wiot: window %.3g s must be positive", cfg.WindowSec)
	}
	if cfg.Detector == nil {
		return nil, errors.New("wiot: base station needs a detector")
	}
	if cfg.Sink == nil {
		return nil, errors.New("wiot: base station needs a sink")
	}
	wlen := int(cfg.WindowSec * cfg.SampleRate)
	if wlen <= 0 {
		return nil, fmt.Errorf("wiot: degenerate window of %d samples", wlen)
	}
	b := &BaseStation{
		cfg:    cfg,
		wlen:   wlen,
		maxLag: int(dataset.MaxPairLagSec * cfg.SampleRate),
	}
	if cfg.DetectPeaksAtRuntime {
		rdet, err := peaks.NewRDetector(peaks.DetectorConfig{SampleRate: cfg.SampleRate})
		if err != nil {
			return nil, fmt.Errorf("wiot: runtime R detector: %w", err)
		}
		b.rdet = rdet
	}
	return b, nil
}

// StationStats is a consistent snapshot of a station's counters, taken
// under one lock so concurrent observers never see torn values.
type StationStats struct {
	Windows   int // complete windows classified
	SeqErrors int // sequence gaps detected
	Concealed int // samples synthesized to cover lost frames
	Stale     int // duplicate/out-of-order frames dropped
}

// Stats returns a consistent snapshot of the station's counters.
func (b *BaseStation) Stats() StationStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return StationStats{
		Windows:   b.windows,
		SeqErrors: b.seqErrors,
		Concealed: b.concealed,
		Stale:     b.stale,
	}
}

// SeqErrors returns the number of out-of-order or duplicate frames seen.
func (b *BaseStation) SeqErrors() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seqErrors
}

// WindowsProcessed returns how many complete windows have been classified.
func (b *BaseStation) WindowsProcessed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.windows
}

// HandleFrame ingests one sensor frame, classifying any windows that
// complete as a result. Sequence numbers drive the pipeline's loss
// handling (Insight #1): a gap of k frames is concealed by synthesizing
// k frames' worth of hold-last samples, so the ECG and ABP streams stay
// mutually aligned; stale or duplicate frames are dropped.
func (b *BaseStation) HandleFrame(f Frame) error {
	if !f.Sensor.Valid() {
		return fmt.Errorf("%w: %d", ErrBadSensor, f.Sensor)
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	s := &b.ecg
	if f.Sensor == SensorABP {
		s = &b.abp
	}
	seen := f.Seq
	switch {
	case !s.synced:
		// First frame from this sensor: adopt its sequence as the stream
		// origin. Treating an arbitrary starting point as a gap from zero
		// would synthesize up to 2^32 frames of concealment.
		s.synced = true
	case seqBefore(seen, s.next):
		// Duplicate or reordered-late frame: already accounted for. The
		// comparison is serial (RFC 1982): after the u32 sequence space
		// wraps, post-wrap frames are later than pre-wrap ones, not stale.
		b.stale++
		return nil
	case seqAfter(seen, s.next):
		// The lost frames are as long as the last one received, not the
		// arriving one: only a stream's final frame is short, and a gap it
		// reveals must still be filled in full.
		gap := int(seen - s.next)
		b.seqErrors += gap
		fill := gap * s.frameLen
		b.concealed += fill
		for range fill {
			s.samples = append(s.samples, s.last)
		}
	}
	s.next = seen + 1
	s.frameLen = len(f.Samples)
	for _, q := range f.Samples {
		s.samples = append(s.samples, q.Float())
	}
	if len(f.Samples) > 0 {
		s.last = s.samples[len(s.samples)-1]
	}
	return b.drainWindows()
}

// ConcealedSamples returns how many samples were synthesized to cover
// lost frames.
func (b *BaseStation) ConcealedSamples() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.concealed
}

// StaleFrames returns how many duplicate/out-of-order frames were dropped.
func (b *BaseStation) StaleFrames() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stale
}

// drainWindows classifies every complete window, then moves the
// unwindowed tail of each stream to the front of its buffer. Caller
// holds mu.
func (b *BaseStation) drainWindows() error {
	var err error
	off := 0
	for err == nil && len(b.ecg.samples)-off >= b.wlen && len(b.abp.samples)-off >= b.wlen {
		end := off + b.wlen
		err = b.classify(b.ecg.samples[off:end:end], b.abp.samples[off:end:end])
		off = end
	}
	b.ecg.consume(off)
	b.abp.consume(off)
	return err
}

// consume drops the first n samples, keeping the buffer's storage.
func (s *sensorStream) consume(n int) {
	if n > 0 {
		s.samples = s.samples[:copy(s.samples, s.samples[n:])]
	}
}

// classify runs the detector on one window and delivers its verdict.
// Caller holds mu.
func (b *BaseStation) classify(ecg, abp []float64) error {
	w := dataset.Window{
		SubjectID: b.cfg.SubjectID,
		Index:     b.windows,
		ECG:       ecg,
		ABP:       abp,
	}
	if b.cfg.DetectPeaksAtRuntime {
		r, err := b.rdet.Detect(ecg)
		if err != nil {
			return fmt.Errorf("wiot: runtime R detection: %w", err)
		}
		b.sysPeaks, err = peaks.DetectSystolicInto(b.sysPeaks, abp, b.cfg.SampleRate)
		if err != nil {
			return fmt.Errorf("wiot: runtime systolic detection: %w", err)
		}
		b.pairs = peaks.PairInto(b.pairs, r, b.sysPeaks, b.maxLag)
		w.RPeaks, w.SysPeaks, w.Pairs = r, b.sysPeaks, b.pairs
	}

	altered, err := b.cfg.Detector.Classify(w)
	if err != nil {
		return fmt.Errorf("wiot: classify window %d: %w", w.Index, err)
	}
	b.cfg.Sink.Deliver(Alert{WindowIndex: b.windows, Altered: altered, SubjectID: b.cfg.SubjectID})
	b.windows++
	return nil
}
