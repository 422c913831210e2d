package bitstream

import (
	"slices"

	"repro/internal/fabric"
)

// Snapshot is a frame-granular, copy-on-write checkpoint of a Shadow. Begin
// marks an epoch; from then on the shadow saves the pre-image of every frame
// the first time it is overwritten, so rollback state is proportional to the
// frames an operation actually touched instead of to the whole device (the
// full-clone checkpoint it replaces was O(device) per operation).
//
// A Snapshot stays usable across several rollbacks: Rollback restores the
// shadow to the epoch state and re-arms the snapshot, so one checkpoint can
// back a retry loop. Release detaches it; a released snapshot stops
// accumulating pre-images and must not be rolled back.
//
// Pre-image slices are shared, never mutated: the shadow replaces frame
// slices wholesale on every note, so a saved slice is immutable from the
// moment it is captured.
type Snapshot struct {
	shadow *Shadow
	saved  map[fabric.FrameAddr][]uint32
	active bool
}

// Begin opens a copy-on-write snapshot of the shadow's current state.
func (s *Shadow) Begin() *Snapshot {
	sn := &Snapshot{
		shadow: s,
		saved:  make(map[fabric.FrameAddr][]uint32),
		active: true,
	}
	s.snaps = append(s.snaps, sn)
	return sn
}

// cow records the pre-image of a frame into every active snapshot that has
// not seen the address yet. Called by Note/NoteOwned before an overwrite.
func (s *Shadow) cow(addr fabric.FrameAddr, old []uint32) {
	for _, sn := range s.snaps {
		if _, seen := sn.saved[addr]; !seen {
			sn.saved[addr] = old
		}
	}
}

// detach removes a snapshot from the shadow's active list.
func (s *Shadow) detach(sn *Snapshot) {
	for i, cur := range s.snaps {
		if cur == sn {
			s.snaps = append(s.snaps[:i], s.snaps[i+1:]...)
			return
		}
	}
}

// Frames returns the dirty set — the addresses whose pre-images the snapshot
// holds — in frame-address order.
func (sn *Snapshot) Frames() []fabric.FrameAddr {
	out := make([]fabric.FrameAddr, 0, len(sn.saved))
	for addr := range sn.saved {
		out = append(out, addr)
	}
	slices.SortFunc(out, fabric.FrameAddr.Compare)
	return out
}

// Preimage returns the epoch-time content of a frame, if the frame changed
// since Begin.
func (sn *Snapshot) Preimage(addr fabric.FrameAddr) ([]uint32, bool) {
	f, ok := sn.saved[addr]
	return f, ok
}

// RecoveryWords builds a partial bitstream restoring every dirty frame to
// its pre-image — the frame-granular counterpart of Shadow.RecoveryBitstream.
// It returns nil when nothing changed since Begin.
func (sn *Snapshot) RecoveryWords() []uint32 {
	addrs := sn.Frames()
	if len(addrs) == 0 {
		return nil
	}
	updates := make([]FrameUpdate, len(addrs))
	for i, addr := range addrs {
		updates[i] = FrameUpdate{Addr: addr, Data: sn.saved[addr]}
	}
	fw := sn.shadow.frameWords
	b := NewBuilder(fw)
	b.Grow(partialStreamWords(fw, updates))
	b.Sync().ResetCRC().FrameLength()
	appendUpdates(b, updates)
	b.Desync()
	return b.Words()
}

// Rollback restores the shadow to the epoch state by writing every saved
// pre-image back, then re-arms the snapshot (empty dirty set, still active)
// so the same checkpoint can back another attempt. Other active snapshots
// observe the rollback writes through the normal copy-on-write path.
func (sn *Snapshot) Rollback() {
	if !sn.active {
		return
	}
	// Detach first so the rollback writes do not copy-on-write into sn
	// itself while it is being drained.
	sn.shadow.detach(sn)
	for addr, pre := range sn.saved {
		sn.shadow.NoteOwned(addr, pre)
	}
	sn.saved = make(map[fabric.FrameAddr][]uint32)
	sn.shadow.snaps = append(sn.shadow.snaps, sn)
}

// Release detaches the snapshot; it stops accumulating pre-images and frees
// its dirty set. Safe to call more than once.
func (sn *Snapshot) Release() {
	if !sn.active {
		return
	}
	sn.active = false
	sn.shadow.detach(sn)
	sn.saved = nil
}
