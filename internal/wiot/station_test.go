package wiot

import (
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/physio"
)

// TestStationConcealsGapBeforeShortLastFrame is the regression test for
// gap sizing: a lost frame revealed by a stream's short final frame must
// be filled with the lost frame's length, not the short frame's, or the
// stream's last window is never completed.
func TestStationConcealsGapBeforeShortLastFrame(t *testing.T) {
	const frame, full, tail = 90, 24, 30
	samples := full*frame + tail
	st := newTestStation(t, &flagEveryOther{}, &MemorySink{})
	for seq := 0; seq <= full; seq++ {
		if seq == full-1 {
			continue // the second-to-last frame is lost on both sensors
		}
		n := frame
		if seq == full {
			n = tail
		}
		for _, id := range []SensorID{SensorECG, SensorABP} {
			if err := st.HandleFrame(FrameFromFloats(id, uint32(seq), make([]float64, n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	wlen := int(dataset.WindowSec * physio.DefaultSampleRate)
	if got, want := st.WindowsProcessed(), samples/wlen; got != want {
		t.Errorf("windows = %d, want ⌊%d/%d⌋ = %d", got, samples, wlen, want)
	}
	if got := st.ConcealedSamples(); got != 2*frame {
		t.Errorf("concealed = %d samples, want %d (one %d-sample frame per sensor)", got, 2*frame, frame)
	}
}

// peakSumDetector reads every buffer the station lends a window and
// allocates nothing.
type peakSumDetector struct {
	sum    float64
	rPeaks int
	pairs  int
}

func (d *peakSumDetector) Classify(w dataset.Window) (bool, error) {
	for i := range w.ECG {
		d.sum += w.ECG[i] + w.ABP[i]
	}
	for _, i := range w.SysPeaks {
		d.sum += w.ABP[i]
	}
	d.rPeaks += len(w.RPeaks)
	d.pairs += len(w.Pairs)
	return len(w.RPeaks) == 0, nil
}

// countSink counts alerts without keeping them.
type countSink struct{ n int }

func (s *countSink) Deliver(Alert) { s.n++ }

// windowFeeder replays a record to a runtime-peaks station one window per
// call, as interleaved 90-sample ECG/ABP frames with the sixth frame of
// every window lost on both sensors, so each window is completed by its
// last ABP frame after a gap has been concealed. Sequence numbers keep
// rising when the record wraps around, so the same frames can be replayed
// indefinitely.
type windowFeeder struct {
	st      *BaseStation
	windows [][]Frame
	next    int
	seq     uint32
}

func newWindowFeeder(tb testing.TB, det Detector, sink Sink) *windowFeeder {
	tb.Helper()
	const frame, lost = 90, 5
	rec, err := physio.Generate(physio.DefaultSubject(), 30, physio.DefaultSampleRate, 9)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := NewBaseStation(StationConfig{
		SubjectID:            "S01",
		SampleRate:           rec.SampleRate,
		Detector:             det,
		Sink:                 sink,
		DetectPeaksAtRuntime: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := &windowFeeder{st: st}
	for lo := 0; lo+st.wlen <= len(rec.ECG); lo += st.wlen {
		var frames []Frame
		for k := 0; k*frame < st.wlen; k++ {
			a, b := lo+k*frame, lo+(k+1)*frame
			if k == lost {
				frames = append(frames, Frame{}, Frame{}) // placeholders keep the sequence count
				continue
			}
			frames = append(frames,
				FrameFromFloats(SensorECG, 0, rec.ECG[a:b]),
				FrameFromFloats(SensorABP, 0, rec.ABP[a:b]))
		}
		f.windows = append(f.windows, frames)
	}
	return f
}

// feed delivers the next window's frames.
func (f *windowFeeder) feed(tb testing.TB) {
	for i, fr := range f.windows[f.next%len(f.windows)] {
		if fr.Sensor.Valid() {
			fr.Seq = f.seq
			if err := f.st.HandleFrame(fr); err != nil {
				tb.Fatal(err)
			}
		}
		if i%2 == 1 {
			f.seq++
		}
	}
	f.next++
}

// TestStationWindowAllocFree pins the station's steady-state window path
// at zero allocations: frame ingest, gap concealment, window assembly and
// runtime R/systolic/pair detection, with a detector and sink that
// allocate nothing themselves.
func TestStationWindowAllocFree(t *testing.T) {
	det, sink := &peakSumDetector{}, &countSink{}
	f := newWindowFeeder(t, det, sink)
	for range f.windows { // one pass sizes every buffer
		f.feed(t)
	}
	runs := 2 * len(f.windows)
	if n := testing.AllocsPerRun(runs, func() { f.feed(t) }); n != 0 {
		t.Errorf("steady-state window allocates %.1f times, want 0", n)
	}
	// AllocsPerRun adds one warm-up call.
	wantWindows := 3*len(f.windows) + 1
	if sink.n != wantWindows || f.st.WindowsProcessed() != wantWindows {
		t.Errorf("windows = %d delivered, %d processed, want %d", sink.n, f.st.WindowsProcessed(), wantWindows)
	}
	if got, want := f.st.ConcealedSamples(), 2*90*wantWindows; got != want {
		t.Errorf("concealed = %d samples, want %d", got, want)
	}
	if det.rPeaks == 0 || det.pairs == 0 {
		t.Errorf("runtime detection found %d R peaks and %d pairs", det.rPeaks, det.pairs)
	}
}

// BenchmarkStationWindow is the station's per-window cost with a detector
// that does no work: ingest, concealment, assembly and runtime peaks.
func BenchmarkStationWindow(b *testing.B) {
	f := newWindowFeeder(b, &peakSumDetector{}, &countSink{})
	for range f.windows {
		f.feed(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.feed(b)
	}
}
