package main

import (
	"testing"

	"repro/internal/area"
	"repro/internal/fabric"
	"repro/internal/rearrange"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestFabricSpaceWorkload runs a small event-driven schedule against a live
// System: real designs loaded/unloaded/relocated, lock-step verified, and
// the same Metrics schema as the book-keeping mode.
func TestFabricSpaceWorkload(t *testing.T) {
	space, err := newFabricSpace(fabric.XCV50, true, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.Stream(workload.Config{
		Seed: 1, N: 12,
		MeanInterarrival: 1.0, MeanService: 6.0,
		MinSide: 3, MaxSide: 10, Dist: workload.Bimodal,
	})
	s := sched.NewSimulatorOn(sched.Config{
		Policy:  area.FirstFit,
		Planner: rearrange.LocalRepacking{}, MaxWait: 20,
	}, space)
	m := s.Run(stream)
	if m.Submitted != 12 {
		t.Errorf("submitted = %d", m.Submitted)
	}
	placed := m.Placed + m.PlacedAfterRearrange + m.PlacedAfterWait
	if placed == 0 {
		t.Fatal("no task was ever placed on the fabric")
	}
	if placed+m.Rejected != m.Submitted {
		t.Errorf("accounting: placed %d + rejected %d != submitted %d",
			placed, m.Rejected, m.Submitted)
	}
	// All departures happened: the device is clean again.
	if got := len(space.System().Designs()); got != 0 {
		t.Errorf("%d designs still resident", got)
	}
	if free := space.System().Area().FreeCLBs(); free != 16*24 {
		t.Errorf("area not fully freed: %d", free)
	}
	// Real frames were streamed for the loads.
	if space.System().Stats().FramesWritten == 0 && space.System().Port().Elapsed() == 0 {
		t.Error("no configuration traffic reached the fabric")
	}
}

// TestFabricSpaceTemplateCache runs a repeat-heavy stream with the template
// cache enabled and lock-step verification on, and checks the cache
// actually serves warm loads.
func TestFabricSpaceTemplateCache(t *testing.T) {
	space, err := newFabricSpace(fabric.XCV50, true, 16, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.Stream(workload.Config{
		Seed: 4, N: 16,
		MeanInterarrival: 1.0, MeanService: 6.0,
		MinSide: 3, MaxSide: 6, RepeatPool: 3,
	})
	s := sched.NewSimulatorOn(sched.Config{
		Policy:  area.FirstFit,
		Planner: rearrange.LocalRepacking{}, MaxWait: 20,
	}, space)
	m := s.Run(stream)
	if m.Placed+m.PlacedAfterRearrange+m.PlacedAfterWait == 0 {
		t.Fatal("no task was ever placed on the fabric")
	}
	st, ok := space.System().TemplateStats()
	if !ok {
		t.Fatal("template cache not enabled")
	}
	if st.Hits == 0 {
		t.Errorf("repeat pool of 3 over 16 tasks produced no warm load: %+v", st)
	}
	if got := len(space.System().Designs()); got != 0 {
		t.Errorf("%d designs still resident", got)
	}
}
