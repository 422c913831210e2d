package relocate

import (
	"fmt"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// FrameTool turns logical configuration edits (cell configs, PIP bits, pad
// bits) into partial-bitstream frame writes delivered through a
// configuration port. It maintains the shadow copy the paper's tool keeps
// for failure recovery, and it is the ONLY mutation path the relocation
// engine uses — everything the engine does is real partial reconfiguration.
//
// Frame writes are staged write-through: the device sees each frame the
// moment it is staged (rewriting identical bits is glitch-free, so the later
// port delivery of the same data is harmless), while the packet stream is
// coalesced — one sync/CRC-bracketed partial bitstream per Apply, or per
// whole batch when the caller brackets several operations with
// BeginBatch/EndBatch. A frame staged twice in one batch streams once, with
// its final content.
//
// Besides the shadow, the tool keeps one record per configuration frame
// (frameState): the frame's delta baselines, whether it is pending, the
// number of the last burst that carried it, and its pre-image under the
// checkpoint. That number is all the stream tracking there is: bursts are
// numbered in enqueue order, so a frame may still be streaming exactly when
// its number is above the port's CompletedBursts.
//
// The tool also keeps the one rollback checkpoint (Arm .. Disarm). It sees
// every write to the shadow, so the first write to a frame after Arm saves
// the frame's pre-image in its record, and a rollback replays only what the
// operation touched.
type FrameTool struct {
	dev    *fabric.Device
	port   bitstream.Port
	shadow *bitstream.Shadow

	// VerifyHook, when set, is invoked after every frame write (the
	// harness re-settles the simulator and checks for glitches there).
	// Setting it disables write coalescing: every frame streams on its
	// own so the hook observes the same per-frame sequence the paper's
	// cautious tool produced.
	VerifyHook func() error
	// ReadbackVerify reads every written frame back through the port and
	// compares — the cautious mode of the paper's tool. It roughly doubles
	// the Boundary-Scan traffic per relocation (see the ablation bench).
	// Like VerifyHook it forces per-frame streaming.
	ReadbackVerify bool

	// Serial makes Flush harvest the burst it just enqueued before it
	// returns, so nothing streams while the host plans and a transport fault
	// surfaces at that Flush, through AwaitStream and the Retry delegate as
	// a pipelined one does. The one burst it leaves in flight is the last
	// of an InBatch whose fn failed, which the rollback drains. The
	// pipelined/serial bit-identity property tests use it.
	Serial bool

	frames  int
	genSeen uint64

	// states holds one record per configuration frame, indexed by
	// Device.FrameIndex and built on first use (see state).
	states []frameState

	batchDepth int
	// pending lists the frames staged but not yet streamed, in first-staged
	// order (each one's record is marked pending); content is not kept here
	// — Flush reads each frame from the shadow, which always holds the
	// latest staged (and designer-reconciled) data.
	pending []fabric.FrameAddr
	// updates is the list Flush builds each delivery in. Flush keeps it, and
	// the pending list's backing array, from one flush to the next. Reusing
	// both is safe: nothing Flush calls stages a frame, so the pending list
	// cannot grow while Flush reads it; the ports encode the updates before
	// StreamUpdates returns; and DeliveryBarrier observers must not keep
	// them.
	updates []bitstream.FrameUpdate

	// Flush numbers the bursts it enqueues 1, 2, ... — enqueued is the last
	// number, and since the tool is the port's only streamer it matches the
	// port's own count — and stamps each frame's record with its burst.
	// retired trails the port's CompletedBursts, read only when a frame's
	// burst is above it, in StreamInFlight and after a harvest. A new write
	// to a frame whose burst is above CompletedBursts must first drain the
	// queue, because on a real part the in-flight stream and the new write
	// would race on the configuration port; a frame stops gating the moment
	// its burst has fully shifted out — no blocking await needed. gateDrains
	// counts the gate's drains; the engine reads it to count the relocations
	// that waited on the port.
	enqueued   uint64
	retired    uint64
	gateDrains int

	// Retry, when set, is the transport fault-tolerance delegate: every
	// stream error surfacing at AwaitStream is handed to it together with
	// the unharvested frame set, and a nil return absorbs the fault. The
	// run-time manager's re-delivery ladder hangs here — AwaitStream is the
	// single point transport faults of the batched pipeline surface, whether
	// at an operation's harvest, the stage gate's serial drain or, with
	// Serial set, the Flush that enqueued the burst. The delegate must not
	// call back into AwaitStream (it re-delivers through the port directly).
	Retry func(cause error, addrs []fabric.FrameAddr) error
	// unharvested lists the distinct frames of every burst enqueued since
	// the last clean AwaitStream, in first-enqueued order — the
	// conservative re-delivery superset: the drain counts failed bursts
	// completed, so a sticky stream error cannot name the burst it belongs
	// to, but every burst with an unconfirmed outcome is in this list. Under
	// write-through staging, re-sending the whole list from the shadow is
	// correct (an already-delivered frame gets a glitch-free identical
	// rewrite). harvested is the enqueue count when the list was last
	// emptied, so a frame is listed exactly when its burst is above it.
	unharvested []fabric.FrameAddr
	harvested   uint64

	// Masked, when set, reports the configuration columns (by frame-address
	// major) that are condemned memory: staged writes to their frames still
	// update the shadow and the device model (the host view stays
	// coherent), but Flush silently drops them from port delivery and the
	// cautious readback mode skips them — nothing live may depend on a
	// masked column (the area manager's mask guarantees that). The run-time
	// manager points it at its column health ledger; nil masks nothing.
	Masked func(major int) bool

	sink ViewSink

	// edits is the one list cellEdits, SetPIP, ClearSinkPIPs and writePad
	// build their edits in. Reusing it is safe: Apply reads its edits only
	// in its first loop, before it stages anything, so a write nested in
	// staging (a drain's Retry delegate, a VerifyHook) cannot overwrite a
	// list still being read.
	edits []Edit

	// barrier, when set, observes the flush ordering: PreDeliver fires
	// after the frames of a flush (or a designer-path reconciliation) are
	// known but before their content is delivered through the port, and a
	// PreDeliver error aborts the delivery. The run-time manager's journal
	// hangs here — undo records must be durable before the device-visible
	// write they cover.
	barrier DeliveryBarrier

	// armed marks an open checkpoint. dirty lists, in first-written order,
	// the frames written since it was armed or last rolled back; each one's
	// record holds its pre-image.
	armed bool
	dirty []fabric.FrameAddr
}

// frameState is the frame tool's one record of a configuration frame.
//
// lastSent and confirmed are the frame's delta baselines for compressed
// delivery. lastSent is the content most recently handed to the port
// (captured from the pre-staging shadow on the frame's first-ever stage, so
// the initial baseline is what the fabric held at power-up); Flush diffs each
// delivery against it. confirmed trails lastSent: it only advances when a
// delivery's outcome is confirmed (a clean harvest, a designer-path
// reconciliation, a rollback), and it is the baseline the facade's
// re-delivery ladder diffs against — a failed burst's frames genuinely
// re-ship their changed runs. Both are nil until the frame is first adopted
// or staged, and both alias shadow slices (the shadow replaces slices
// wholesale, never mutates in place); a stale baseline is always safe: under
// write-through staging a too-old baseline only enlarges the shipped delta.
//
// pending marks a frame on the tool's pending list. burst is the number of
// the last burst that carried the frame, 0 until one does.
//
// pre is the frame's content when the checkpoint was armed (or last rolled
// back), saved on the frame's first write since; nil while the frame is not
// on the dirty list. Like the baselines it aliases a shadow slice.
type frameState struct {
	lastSent, confirmed []uint32
	pre                 []uint32
	burst               uint64
	pending             bool
}

// state returns a frame's record. The table is built on first use, so a tool
// that never adopts or stages a frame (a recovery that only rolls forward)
// never pays for it.
func (ft *FrameTool) state(addr fabric.FrameAddr) *frameState {
	if ft.states == nil {
		ft.states = make([]frameState, ft.dev.TotalFrames())
	}
	return &ft.states[ft.dev.FrameIndex(addr)]
}

// DeliveryBarrier observes the points at which frames become part of the
// delivered configuration. PreDeliver is called with the frame set of one
// delivery before any of it reaches the port; returning an error aborts the
// delivery (nothing is streamed). Delivered is called with the delivered
// updates at enqueue time, when the burst's content is fixed. The updates'
// data slices are owned by the shadow; observers must not retain or mutate
// them.
type DeliveryBarrier interface {
	PreDeliver(addrs []fabric.FrameAddr) error
	Delivered(updates []bitstream.FrameUpdate)
}

// SetBarrier attaches the flush-ordering barrier (nil detaches).
func (ft *FrameTool) SetBarrier(b DeliveryBarrier) { ft.barrier = b }

// ViewSink is told about every frame whose content the tool adopts: a
// staged write, a reconciliation with the device, a rollback. The old and
// new content name exactly which bits changed, so a derived structure (the
// engine's occupancy view) re-derives only what those bits configure; no
// writer has to know its footprint. The device already holds new when
// FrameChanged fires. old equals new for a frame whose generation moved but
// whose content came back unchanged (a scrub probe restoring golden
// content); the call still tells the sink the generation moved.
type ViewSink interface {
	FrameChanged(addr fabric.FrameAddr, old, new []uint32)
}

// SetViewSink attaches the frame-change sink (nil detaches).
func (ft *FrameTool) SetViewSink(s ViewSink) { ft.sink = s }

// NewFrameTool builds a tool over a device and port. The shadow is
// initialised from the device's current configuration.
func NewFrameTool(dev *fabric.Device, port bitstream.Port) (*FrameTool, error) {
	shadow, err := bitstream.NewShadow(dev)
	if err != nil {
		return nil, err
	}
	return &FrameTool{dev: dev, port: port, shadow: shadow, genSeen: dev.Generation()}, nil
}

// Sync adopts configuration that changed through a path other than this
// tool (e.g. the development tool loading a new design) — the paper's tool
// accepts "a complete configuration file" as input; this is the equivalent
// import. Only the frames that actually changed are re-read; they go
// through the tool's one shadow-write path, so an armed checkpoint saves
// their pre-images and covers designer-path writes too, and the view sink
// gets each frame's shadow and readback content. Every tool write starts
// with it.
func (ft *FrameTool) Sync() error {
	g := ft.dev.Generation()
	if g == ft.genSeen {
		return nil
	}
	addrs := ft.dev.FramesChangedSince(ft.genSeen)
	var updates []bitstream.FrameUpdate
	if ft.barrier != nil && len(addrs) > 0 {
		updates = make([]bitstream.FrameUpdate, 0, len(addrs))
	}
	for _, addr := range addrs {
		data, err := ft.dev.ReadFrame(addr.Major, addr.Minor)
		if err != nil {
			return err
		}
		st := ft.state(addr)
		old := ft.note(addr, st, data)
		if ft.sink != nil {
			ft.sink.FrameChanged(addr, old, data)
		}
		// Designer-path content is already on the fabric: it is the delta
		// baseline of the next port delivery of these frames.
		st.lastSent, st.confirmed = data, data
		if updates != nil {
			updates = append(updates, bitstream.FrameUpdate{Addr: addr, Data: data})
		}
	}
	ft.genSeen = g
	if ft.barrier != nil && len(addrs) > 0 {
		// Designer-path writes are already on the device; the barrier still
		// sees them as a delivery so pre-images journal before anything
		// else builds on the reconciled state.
		if err := ft.barrier.PreDeliver(addrs); err != nil {
			return err
		}
		ft.barrier.Delivered(updates)
	}
	return nil
}

// note is the tool's one shadow-write path: it takes data as the frame's
// shadow content and returns the content it replaced. With the checkpoint
// armed, the frame's first write since saves that content as its pre-image.
func (ft *FrameTool) note(addr fabric.FrameAddr, st *frameState, data []uint32) []uint32 {
	old, _ := ft.shadow.Frame(addr)
	if ft.armed && st.pre == nil {
		st.pre = old
		ft.dirty = append(ft.dirty, addr)
	}
	ft.shadow.NoteOwned(addr, data)
	return old
}

// Port returns the configuration port.
func (ft *FrameTool) Port() bitstream.Port { return ft.port }

// Shadow returns the recovery copy.
func (ft *FrameTool) Shadow() *bitstream.Shadow { return ft.shadow }

// FramesWritten returns the cumulative frame count pushed through the port.
func (ft *FrameTool) FramesWritten() int { return ft.frames }

// Edit is one configuration bit change: frame-level address plus bit index.
type Edit struct {
	Addr fabric.FrameAddr
	Bit  int
	On   bool
}

// Apply delivers a set of edits as frame writes. Edits to the same frame
// coalesce into one write; frames are staged in first-touched order. Outside
// a batch the staged frames flush as one partial bitstream before Apply
// returns; inside a batch they coalesce with neighbouring operations until
// the batch ends (or a caller forces a Flush). When VerifyHook or
// ReadbackVerify is set, every frame streams individually and the hook runs
// after each, preserving the cautious per-frame probing mode.
func (ft *FrameTool) Apply(edits []Edit) error {
	if len(edits) == 0 {
		return nil
	}
	if err := ft.Sync(); err != nil {
		return err
	}
	order := []fabric.FrameAddr{}
	frames := map[fabric.FrameAddr][]uint32{}
	for _, e := range edits {
		data, seen := frames[e.Addr]
		if !seen {
			base, ok := ft.shadow.Frame(e.Addr)
			if !ok {
				return fmt.Errorf("relocate: no shadow for frame %v", e.Addr)
			}
			data = make([]uint32, len(base))
			copy(data, base)
			frames[e.Addr] = data
			order = append(order, e.Addr)
		}
		if e.On {
			data[e.Bit/32] |= 1 << (e.Bit % 32)
		} else {
			data[e.Bit/32] &^= 1 << (e.Bit % 32)
		}
	}
	perFrame := ft.VerifyHook != nil || ft.ReadbackVerify
	for _, addr := range order {
		if err := ft.stage(addr, frames[addr]); err != nil {
			return err
		}
		if !perFrame {
			continue
		}
		// The cautious modes are strictly serial: deliver the frame and
		// drain the stream before probing, as the paper's tool did.
		if err := ft.Flush(); err != nil {
			return err
		}
		if err := ft.AwaitStream(); err != nil {
			return err
		}
		if ft.ReadbackVerify && (ft.Masked == nil || !ft.Masked(addr.Major)) {
			got, err := ft.port.ReadFrame(addr)
			if err != nil {
				return fmt.Errorf("relocate: readback of %v: %w", addr, err)
			}
			want, _ := ft.shadow.Frame(addr)
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("relocate: readback mismatch in %v word %d", addr, i)
				}
			}
		}
		if ft.VerifyHook != nil {
			if err := ft.VerifyHook(); err != nil {
				return fmt.Errorf("relocate: after writing %v: %w", addr, err)
			}
		}
	}
	if ft.batchDepth == 0 {
		return ft.Flush()
	}
	return nil
}

// stage commits one frame write: the shadow and the device take the data
// immediately (write-through, so every read path stays coherent inside a
// batch), and the frame joins the pending set. A frame staged twice in one
// batch streams once — Flush reads the shadow, which holds the final data.
// The slice is owned by the tool from here on.
//
// Writing a frame that is part of an in-flight background stream first
// drains the stream (serial fallback): the queued burst carries the frame's
// previous staged content, and delivering it after this write would roll the
// configuration back to stale data. This gate sees every write, so it alone
// makes the pipelined commit bit-identical to serial mode for ANY operation
// mix.
func (ft *FrameTool) stage(addr fabric.FrameAddr, data []uint32) error {
	st := ft.state(addr)
	if st.burst > ft.retired {
		ft.retired = ft.port.CompletedBursts()
		if st.burst > ft.retired {
			ft.gateDrains++
			if err := ft.AwaitStream(); err != nil {
				return err
			}
		}
	}
	old := ft.note(addr, st, data)
	if st.lastSent == nil {
		// First-ever stage of this frame: the pre-staging shadow content is
		// what the fabric has held since power-up — the initial delta
		// baseline for compressed delivery.
		st.lastSent, st.confirmed = old, old
	}
	if err := ft.dev.WriteFrame(addr.Major, addr.Minor, data); err != nil {
		return err
	}
	ft.genSeen = ft.dev.Generation()
	if ft.sink != nil {
		ft.sink.FrameChanged(addr, old, data)
	}
	ft.frames++
	if !st.pending {
		st.pending = true
		ft.pending = append(ft.pending, addr)
	}
	return nil
}

// Flush stages every pending frame into one partial bitstream, sorted by
// frame address so consecutive frames share FDRI bursts. It is a no-op when
// nothing is pending. The burst is enqueued for background shift-out and
// Flush returns while it is still streaming — stage-stream; AwaitStream is
// the matching harvest. With Serial set, Flush makes that harvest itself
// before it returns.
//
// Designer-path writes may have landed since the frames were staged — in a
// batched plan, a Load places directly onto the device between two ops'
// tool writes, possibly into frames that are also pending here (one frame
// carries bits of every row of its column). So Flush first reconciles the
// shadow with the device (an armed checkpoint saves those writes'
// pre-images) and re-reads each pending frame from the reconciled shadow, so
// the port delivers the merged content and the generation cursor never
// jumps over a write the flush did not itself produce.
func (ft *FrameTool) Flush() error {
	if len(ft.pending) == 0 {
		return nil
	}
	if err := ft.Sync(); err != nil {
		return err
	}
	addrs := ft.pending
	ft.pending = addrs[:0]
	slices.SortFunc(addrs, fabric.FrameAddr.Compare)
	kept := addrs[:0]
	for _, addr := range addrs {
		ft.state(addr).pending = false
		if ft.Masked == nil || !ft.Masked(addr.Major) {
			kept = append(kept, addr)
		}
	}
	if addrs = kept; len(addrs) == 0 {
		// Everything staged was condemned memory; the device model took
		// the writes at stage time and nothing ships.
		return nil
	}
	updates := ft.updates[:0]
	for _, addr := range addrs {
		data, ok := ft.shadow.Frame(addr)
		if !ok {
			return fmt.Errorf("relocate: pending frame %v missing from shadow", addr)
		}
		updates = append(updates, bitstream.FrameUpdate{Addr: addr, Data: data, Prev: ft.state(addr).lastSent})
	}
	ft.updates = updates
	if ft.barrier != nil {
		// The journal's ordering contract: undo records for every frame of
		// this delivery are durable before the port sees any of it.
		if err := ft.barrier.PreDeliver(addrs); err != nil {
			return err
		}
	}
	// Stage-stream: the burst shifts out in the background. The words are
	// built from the shadow's current slices at enqueue time (the stream
	// copies the data), so later staging cannot mutate an in-flight burst.
	// Every frame carries the burst's number, and gates conflicting writes
	// until the port has completed that many bursts. The burst's content is
	// fixed at enqueue: it is the delta baseline of the next delivery,
	// whatever the shift-out's outcome (confirmed only advances at a clean
	// harvest).
	ft.enqueued++
	for _, u := range updates {
		st := ft.state(u.Addr)
		if st.burst <= ft.harvested {
			ft.unharvested = append(ft.unharvested, u.Addr)
		}
		st.burst = ft.enqueued
		st.lastSent = u.Data
	}
	ft.port.StreamUpdates(updates)
	if ft.barrier != nil {
		// The burst's content is fixed at enqueue (the stream copies the
		// data), so the delivered view is already determined here even
		// though the shift-out completes later.
		ft.barrier.Delivered(updates)
	}
	if ft.Serial {
		return ft.AwaitStream()
	}
	return nil
}

// HarvestPending drains an in-flight stream whose outcome no operation
// answers for: a rollback is about to overwrite whatever it delivered, or
// Close is shutting the system down. The error is discarded and the Retry
// delegate is bypassed: re-delivering a superseded stream would only waste
// transport time and double-count the fault the rollback is already
// answering for. The drain is complete, so a caller may feed the
// configuration controller directly once it returns.
func (ft *FrameTool) HarvestPending() {
	retry := ft.Retry
	ft.Retry = nil
	_ = ft.AwaitStream()
	ft.Retry = retry
	// The superseded content is confirmed-or-overwritten either way; the
	// unharvested list must not leak into a later fault's re-delivery.
	ft.dropUnharvested()
}

// dropUnharvested empties the re-delivery superset: every burst it covered
// is confirmed, superseded or past answering for.
func (ft *FrameTool) dropUnharvested() {
	ft.unharvested = nil
	ft.harvested = ft.enqueued
}

// AwaitStream blocks until every burst Flush enqueued has shifted out and
// returns the first transport error among them; either way no frame gates a
// write any more. A stream error is first offered to the Retry delegate
// (when one is installed) with the unharvested frame list; a clean harvest —
// including one the delegate salvaged — confirms every enqueued burst and
// empties the list. It returns at once when nothing is in flight.
func (ft *FrameTool) AwaitStream() error {
	err := ft.port.AwaitStream()
	ft.retired = ft.port.CompletedBursts()
	if err != nil && ft.Retry != nil {
		err = ft.Retry(err, ft.unharvested)
	}
	if err == nil {
		// Every enqueued burst is confirmed on the fabric (directly or
		// salvaged by the delegate): advance the confirmed delta baseline.
		for _, addr := range ft.unharvested {
			st := ft.state(addr)
			st.confirmed = st.lastSent
		}
		ft.dropUnharvested()
	}
	return err
}

// ConfirmedBaseline returns the last frame content whose port delivery was
// confirmed — the delta baseline the facade's re-delivery ladder diffs
// against, so a failed burst's frames genuinely re-ship their changed runs.
// It reports false for a frame the tool has never adopted or staged.
func (ft *FrameTool) ConfirmedBaseline(addr fabric.FrameAddr) ([]uint32, bool) {
	data := ft.state(addr).confirmed
	return data, data != nil
}

// StreamInFlight reports whether a background stream is still shifting out:
// whether the port has yet to complete the last burst the tool enqueued. It
// asks the port only while an earlier answer left a burst outstanding.
func (ft *FrameTool) StreamInFlight() bool {
	if ft.retired < ft.enqueued {
		ft.retired = ft.port.CompletedBursts()
	}
	return ft.retired < ft.enqueued
}

// BeginBatch opens (or nests) a coalescing batch: staged frames accumulate
// until the outermost EndBatch, a Flush, or a per-frame verification mode
// forces delivery.
func (ft *FrameTool) BeginBatch() { ft.batchDepth++ }

// EndBatch closes one batch level and flushes when the outermost level
// closes.
func (ft *FrameTool) EndBatch() error {
	if ft.batchDepth > 0 {
		ft.batchDepth--
	}
	if ft.batchDepth == 0 {
		return ft.Flush()
	}
	return nil
}

// InBatch runs fn inside one batch level. The batch always closes — a
// failing fn still gets its pending frames flushed (they are dead only if
// the caller rolls back, which drops them via AbortPending) — and a flush
// failure surfaces only when fn itself succeeded. A failing fn's burst is
// left in flight even with Serial set, as a pipelined one is: the rollback's
// drain (HarvestPending) answers for it without the Retry delegate.
func (ft *FrameTool) InBatch(fn func() error) error {
	ft.BeginBatch()
	err := fn()
	if err == nil {
		return ft.EndBatch()
	}
	serial := ft.Serial
	ft.Serial = false
	_ = ft.EndBatch()
	ft.Serial = serial
	return err
}

// AbortPending drops the pending stream without delivering it. Used by
// rollback: the recovery bitstream supersedes whatever the failed operation
// still had queued (the device already took the staged writes, and the
// recovery stream overwrites them).
func (ft *FrameTool) AbortPending() {
	for _, addr := range ft.pending {
		ft.state(addr).pending = false
	}
	ft.pending = ft.pending[:0]
}

// Arm synchronises the shadow with the device and opens the checkpoint:
// from here on the first write to each frame — a staged write or a
// designer-path adoption by Sync — saves the frame's pre-image in its
// record, so a rollback replays only what the operation touched. One
// checkpoint is open at a time: Arm panics when the tool is already armed.
func (ft *FrameTool) Arm() error {
	if ft.armed {
		panic("relocate: FrameTool.Arm: a checkpoint is already armed")
	}
	if err := ft.Sync(); err != nil {
		return err
	}
	ft.armed = true
	return nil
}

// Disarm closes the checkpoint and drops its pre-images. A no-op when
// nothing is armed.
func (ft *FrameTool) Disarm() {
	ft.clearDirty()
	ft.armed = false
}

// clearDirty empties the dirty list and the pre-images it names.
func (ft *FrameTool) clearDirty() {
	for _, addr := range ft.dirty {
		ft.state(addr).pre = nil
	}
	ft.dirty = ft.dirty[:0]
}

// Preimage returns a frame's content at the checkpoint, if the frame was
// written since it was armed (or last rolled back).
func (ft *FrameTool) Preimage(addr fabric.FrameAddr) ([]uint32, bool) {
	pre := ft.state(addr).pre
	return pre, pre != nil
}

// DirtyFrames returns the frames written since the checkpoint was armed (or
// last rolled back), in frame-address order.
func (ft *FrameTool) DirtyFrames() []fabric.FrameAddr {
	addrs := slices.Clone(ft.dirty)
	slices.SortFunc(addrs, fabric.FrameAddr.Compare)
	return addrs
}

// RecoveryWords builds the partial recovery stream that restores every dirty
// frame to its pre-image; nil when nothing is dirty. Any in-flight stream
// drains first (HarvestPending) — the rollback overwrites frames the stream
// may cover, and the caller feeds the words to the controller the port's
// worker owned until the drain. The drained stream's own error is
// discarded: a rollback is already under way, and the recovery stream
// supersedes whatever the failed delivery left behind. It then synchronises
// so designer-path writes since the checkpoint are part of the dirty set.
func (ft *FrameTool) RecoveryWords() ([]uint32, error) {
	ft.HarvestPending()
	if err := ft.Sync(); err != nil {
		return nil, err
	}
	if len(ft.dirty) == 0 {
		return nil, nil
	}
	addrs := ft.DirtyFrames()
	updates := make([]bitstream.FrameUpdate, len(addrs))
	for i, addr := range addrs {
		updates[i] = bitstream.FrameUpdate{Addr: addr, Data: ft.state(addr).pre}
	}
	return bitstream.Partial(ft.dev, updates), nil
}

// CompleteRestore finishes a rollback after the recovery stream was fed to
// the configuration logic: the pending (dead) stream of the failed operation
// is dropped, the shadow rolls back to the checkpoint, and the generation
// cursor catches up with the recovery writes. The view sink gets each dirty
// frame's content before and after the rollback, so it restores its
// occupancy picture from exactly the bits the rollback changed. The tool
// stays armed with nothing dirty, so the same checkpoint can back another
// attempt.
func (ft *FrameTool) CompleteRestore() {
	ft.HarvestPending() // see RecoveryWords: a rollback supersedes the stream
	ft.AbortPending()
	for _, addr := range ft.DirtyFrames() {
		st := ft.state(addr)
		before, _ := ft.shadow.Frame(addr)
		ft.shadow.NoteOwned(addr, st.pre)
		// The recovery stream physically re-delivered the frame in full: the
		// pre-image is the new value of both baselines.
		st.lastSent, st.confirmed = st.pre, st.pre
		if ft.sink != nil {
			ft.sink.FrameChanged(addr, before, st.pre)
		}
	}
	ft.clearDirty()
	ft.genSeen = ft.dev.Generation()
}

// cellEdits builds the edits that set a cell's configuration word, in the
// tool's edit list.
func (ft *FrameTool) cellEdits(ref fabric.CellRef, cc fabric.CellConfig) []Edit {
	start, width := ft.dev.CellSlotRange(ref.Cell)
	word := cc.Encode()
	edits := ft.edits[:0]
	for i := 0; i < width; i++ {
		major, minor, bit := ft.dev.BitAddr(ref.Coord, start+i)
		edits = append(edits, Edit{
			Addr: fabric.FrameAddr{Major: major, Minor: minor},
			Bit:  bit,
			On:   word>>i&1 == 1,
		})
	}
	ft.edits = edits
	return edits
}

// pipEdit builds the edit toggling one PIP bit of a sink.
func (ft *FrameTool) pipEdit(c fabric.Coord, sinkLocal, bit int, on bool) Edit {
	start, _ := ft.dev.PIPSlotRange(sinkLocal)
	major, minor, fbit := ft.dev.BitAddr(c, start+bit)
	return Edit{Addr: fabric.FrameAddr{Major: major, Minor: minor}, Bit: fbit, On: on}
}

// WriteCell applies a cell configuration through the port.
func (ft *FrameTool) WriteCell(ref fabric.CellRef, cc fabric.CellConfig) error {
	return ft.Apply(ft.cellEdits(ref, cc))
}

// SetPIP toggles the PIP from src to the sink node through the port.
func (ft *FrameTool) SetPIP(src, sink fabric.NodeID, on bool) error {
	if pad, ok := ft.dev.PadOfNode(sink); ok {
		return ft.setPadPIP(pad, src, on)
	}
	c, local, ok := ft.dev.SplitNode(sink)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("relocate: node %d is not a configurable sink", sink)
	}
	bit, ok := ft.dev.PIPBitFor(c, local, src)
	if !ok {
		return fmt.Errorf("relocate: no PIP from %d to %d", src, sink)
	}
	ft.edits = append(ft.edits[:0], ft.pipEdit(c, local, bit, on))
	return ft.Apply(ft.edits)
}

// SetPath enables (or disables) every PIP along a node path in path order.
func (ft *FrameTool) SetPath(path []fabric.NodeID, on bool) error {
	for i := 1; i < len(path); i++ {
		if err := ft.SetPIP(path[i-1], path[i], on); err != nil {
			return err
		}
	}
	return nil
}

// ClearSinkPIPs disables every enabled PIP of a sink node.
func (ft *FrameTool) ClearSinkPIPs(sink fabric.NodeID) error {
	c, local, ok := ft.dev.SplitNode(sink)
	if !ok || !fabric.IsLocalSink(local) {
		return fmt.Errorf("relocate: node %d is not a configurable sink", sink)
	}
	mask := ft.dev.PIPMask(c, local)
	edits := ft.edits[:0]
	for b := 0; mask != 0; b++ {
		if mask>>b&1 == 1 {
			edits = append(edits, ft.pipEdit(c, local, b, false))
			mask &^= 1 << b
		}
	}
	ft.edits = edits
	return ft.Apply(edits)
}

func (ft *FrameTool) setPadPIP(pad fabric.PadRef, src fabric.NodeID, on bool) error {
	pc := ft.dev.ReadPad(pad)
	srcs := ft.dev.PadOutSourceNodes(pad)
	found := false
	for b, n := range srcs {
		if n == src {
			if on {
				pc.OutMask |= 1 << b
				pc.Output = true
			} else {
				pc.OutMask &^= 1 << b
			}
			found = true
		}
	}
	if !found {
		return fmt.Errorf("relocate: node %d does not feed pad %v", src, pad)
	}
	// Pad config lives in one frame; rebuild it via the designer path on a
	// scratch copy is not available, so edit the frame bits directly.
	return ft.writePad(pad, pc)
}

func (ft *FrameTool) writePad(pad fabric.PadRef, pc fabric.PadConfig) error {
	// Compute the pad's frame and splice the 8-bit config.
	addr := ft.dev.PadConfigFrame(pad)
	_, _, bitBase := ft.dev.PadBitAddr(pad)
	word := pc.Encode()
	edits := ft.edits[:0]
	for i := 0; i < 8; i++ {
		edits = append(edits, Edit{Addr: addr, Bit: bitBase + i, On: word>>i&1 == 1})
	}
	ft.edits = edits
	return ft.Apply(edits)
}

// WritePadConfig applies a pad configuration through the port.
func (ft *FrameTool) WritePadConfig(pad fabric.PadRef, pc fabric.PadConfig) error {
	return ft.writePad(pad, pc)
}
