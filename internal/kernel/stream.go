package kernel

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"systrace/internal/obs"
	"systrace/internal/trace"
)

// The epoch ring: the one drain path.
//
// Every traced System.Run starts a ring. At each doorbell the handler
// copies the filled buffer — one *epoch* — into a free ring slot
// (optionally compressing it with the internal/trace stream codec)
// and hands it to a consumer goroutine, which records telemetry and
// runs the attached analysis program (OnEpoch, OnTrace) while the
// kernel is already generating the next epoch. Two drains share this
// path and differ only in what they charge the simulated machine:
//
//   - Two-phase (Cfg.Stream disabled, the paper's Figure 1): the whole
//     epoch's analysis, words*AnalysisPerWord, stop-the-world at every
//     doorbell. Generation and analysis strictly alternate in
//     simulated time; the host still overlaps them, because nothing in
//     the machine depends on when the analysis actually runs.
//   - Streaming (Cfg.Stream enabled): only the handoff cost plus any
//     stall waiting for a free ring slot, from the analytic queue
//     below.
//
// The handoff is sound for the same reason the paper's two-phase drain
// is: the kernel only rings the doorbell from the §3.3 safe points
// (the trace buffer's soft-limit check and the final flush), where no
// trace store is in flight and the bookkeeping word is consistent, so
// the epoch is a self-contained prefix of the stream. The consumer sees
// epochs in doorbell order over a FIFO channel — the analysis
// program's input is byte-identical whichever drain charges the clock.
//
// Simulated time stays deterministic: the streaming ring is modeled
// analytically with a completion-time queue. Epoch k's analysis
// completes at
//
//	done(k) = max(handed(k), done(k-1)) + words(k)*AnalysisPerWord
//
// and the producer stalls only when all Epochs-1 in-flight slots are
// still busy at handoff time. The consumer goroutine's real host time
// contributes nothing to machine time under either drain; under the
// streaming drain the modeled analysis cycles are recorded on the
// machine's overlapped-analysis counter so the generation/analysis
// duty cycle stays observable.

// StreamConfig selects the drain's charge model. The zero
// value keeps the two-phase charge (stop-the-world analysis at every
// doorbell); either way the epochs travel the same host-side ring.
type StreamConfig struct {
	// Epochs is the modeled ring depth: the number of
	// trace-buffer-sized epochs that may be in flight in simulated
	// time (one filling, the rest draining or being analyzed). Values
	// below 2 select the two-phase charge — a one-slot ring is the
	// two-phase design. The host ring has this many slots when
	// streaming.
	Epochs int
	// HandoffPerWord is the machine cycles charged per trace word to
	// hand a filled epoch to the consumer (the copy out of the trace
	// buffer). This replaces the stop-the-world AnalysisPerWord charge.
	HandoffPerWord uint64
	// Compress encodes each epoch with the internal/trace stream codec
	// on handoff; the consumer decodes before analysis, so the wire
	// format is exercised end to end.
	Compress bool
}

// Enabled reports whether the configuration selects the streaming
// charge model.
func (c StreamConfig) Enabled() bool { return c.Epochs >= 2 }

// DefaultStream returns the standard streaming configuration: a
// four-epoch ring, one handoff cycle per word, compressed handoff.
func DefaultStream() StreamConfig {
	return StreamConfig{Epochs: 4, HandoffPerWord: 1, Compress: true}
}

// StreamStats accumulates one run's streaming-drain accounting; it
// stays zero under the two-phase drain. Producer-side fields
// (Epochs..EncodedBytes) are updated by the doorbell handler on the
// machine's goroutine; DecodeErrors is owned by the consumer and is
// stable once Run returns (Run joins the consumer).
type StreamStats struct {
	Epochs       uint64 // epochs handed to the consumer
	StallCycles  uint64 // machine cycles stalled waiting for a ring slot
	RawBytes     uint64 // raw bytes handed off (4 per word)
	EncodedBytes uint64 // encoded bytes handed off (Compress mode)
	DecodeErrors uint64 // epochs the consumer could not decode
}

// epochBuf is one ring slot: a filled epoch in flight from the
// doorbell handler to the consumer.
type epochBuf struct {
	words  []uint32 // raw epoch (also the encoder's input in Compress mode)
	enc    []byte   // encoded epoch (Compress mode)
	reason uint32   // doorbell reason
	pid    uint32   // pid current at drain time (telemetry attribution)
}

// twoPhaseSlots is the host ring depth under the two-phase drain:
// double buffering, so the consumer analyzes one epoch while the
// machine generates the next. It is host-side only and never appears
// in simulated time, which charges the two-phase drain as if the
// analysis ran in series.
const twoPhaseSlots = 2

// streamer runs one epoch ring for the duration of one System.Run.
type streamer struct {
	sys *System
	cfg StreamConfig // zero under the two-phase drain

	free chan *epochBuf // ring slots available to the producer
	work chan *epochBuf // filled epochs in doorbell order
	wg   sync.WaitGroup

	enc *trace.Encoder // producer-side encoder (Compress mode)

	// An analysis panic on the consumer: perr is written before failed
	// is set, and re-raised on the machine's goroutine (rethrown once).
	failed   atomic.Bool
	perr     any
	rethrown bool

	// Analytic ring model: completion times of in-flight epochs
	// (sorted; at most Epochs-1 entries) and the previous epoch's
	// completion (the single analysis engine is FIFO).
	compl    []uint64
	prevDone uint64
}

func newStreamer(s *System) *streamer {
	st := &streamer{sys: s}
	slots := twoPhaseSlots
	if s.Cfg.Stream.Enabled() {
		st.cfg = s.Cfg.Stream
		slots = st.cfg.Epochs
	}
	st.free = make(chan *epochBuf, slots)
	st.work = make(chan *epochBuf, slots)
	for i := 0; i < slots; i++ {
		st.free <- &epochBuf{}
	}
	if st.cfg.Compress {
		st.enc = trace.NewEncoder()
	}
	st.wg.Add(1)
	go st.consume()
	return st
}

// handoff copies the n-word epoch out of the trace buffer, hands it to
// the consumer, and returns the machine cycles to charge: the whole
// analysis under the two-phase drain, the handoff cost plus any
// modeled stall for a ring slot under the streaming drain. Runs on the
// machine's goroutine inside the doorbell handler.
func (st *streamer) handoff(reason, pid uint32, n uint32, now uint64) uint64 {
	if st.failed.Load() {
		st.rethrown = true
		panic(st.perr)
	}
	s := st.sys
	b := <-st.free // real backpressure: memory is bounded by the ring depth
	b.reason, b.pid = reason, pid
	if cap(b.words) < int(n) {
		b.words = make([]uint32, n)
	}
	b.words = b.words[:n]
	ram := s.M.RAM.Bytes()
	for i := uint32(0); i < n; i++ {
		b.words[i] = binary.BigEndian.Uint32(ram[s.tbufPA+i*4:])
	}
	if st.cfg.Compress {
		b.enc = st.enc.Encode(b.words, b.enc[:0])
		s.StreamStats.EncodedBytes += uint64(len(b.enc))
	}
	st.work <- b
	if !st.cfg.Enabled() {
		return uint64(n) * s.Cfg.AnalysisPerWord
	}

	// Analytic accounting on the deterministic machine clock.
	s.StreamStats.Epochs++
	s.StreamStats.RawBytes += uint64(n) * 4
	handoff := uint64(n) * st.cfg.HandoffPerWord
	t := now + handoff
	for len(st.compl) > 0 && st.compl[0] <= t {
		st.compl = st.compl[1:]
	}
	var stall uint64
	if len(st.compl) >= st.cfg.Epochs-1 {
		// Every slot the kernel could generate into is still busy:
		// wait for the oldest in-flight epoch's analysis to finish.
		stall = st.compl[0] - t
		t = st.compl[0]
		st.compl = st.compl[1:]
	}
	start := t
	if st.prevDone > start {
		start = st.prevDone
	}
	done := start + uint64(n)*s.Cfg.AnalysisPerWord
	st.compl = append(st.compl, done)
	st.prevDone = done
	s.M.AddOverlapCycles(uint64(n) * s.Cfg.AnalysisPerWord)
	s.StreamStats.StallCycles += stall
	return handoff + stall
}

// consume is the analysis side of the ring: analyze each epoch in
// doorbell order and return its slot.
func (st *streamer) consume() {
	defer st.wg.Done()
	var dec *trace.Decoder
	if st.cfg.Compress {
		dec = trace.NewDecoder()
	}
	var scratch []uint32
	for b := range st.work {
		if !st.failed.Load() {
			scratch = st.deliver(b, dec, scratch)
		}
		st.free <- b
	}
}

// deliver analyzes one epoch: decode (if compressed), record
// telemetry, run the attached analysis program. A panic in the
// analysis is kept and re-raised on the machine's goroutine (at the
// next handoff, or when the ring closes), where a serial analysis
// would have raised it; later epochs are then only recycled.
func (st *streamer) deliver(b *epochBuf, dec *trace.Decoder, scratch []uint32) []uint32 {
	sp := obs.Begin("stream_consume")
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			st.perr = r
			st.failed.Store(true)
		}
	}()
	s := st.sys
	if s.OnEpoch != nil && dec != nil {
		s.OnEpoch(b.enc)
	}
	words := b.words
	if dec != nil {
		// Decode only when something consumes the words; an
		// OnEpoch-only consumer decodes for itself.
		if s.tel == nil && s.OnTrace == nil {
			return scratch
		}
		var err error
		scratch, err = dec.Decode(b.enc, scratch[:0])
		if err != nil {
			s.StreamStats.DecodeErrors++
			obs.Failure("trace_stream_decode",
				fmt.Sprintf("epoch of %d words: %v", len(b.words), err))
			return scratch
		}
		words = scratch
	}
	if s.tel != nil {
		s.tel.record(b.reason, b.pid, words)
	}
	if s.OnTrace != nil {
		s.OnTrace(words)
	}
	return scratch
}

// close stops the consumer after all handed-off epochs are analyzed.
// Returning establishes the happens-before the caller needs to read
// analysis results; an analysis panic not yet re-raised by handoff is
// re-raised here.
func (st *streamer) close() {
	close(st.work)
	st.wg.Wait()
	if st.failed.Load() && !st.rethrown {
		panic(st.perr)
	}
}
