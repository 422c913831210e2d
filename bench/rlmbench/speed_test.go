package main

import "testing"

func TestParseCPUStat(t *testing.T) {
	for _, tc := range []struct {
		name, data string
		want       cpuStat
	}{
		// user nice system idle iowait irq softirq steal guest guest_nice:
		// idle and iowait are not busy, guest is already in user.
		{"full line", "cpu  100 5 50 800 20 3 10 40 7 1\ncpu0 1 2 3\n", cpuStat{busy: 208, steal: 40}},
		{"no guest columns", "cpu  100 0 50 800 20 0 10 40\n", cpuStat{busy: 200, steal: 40}},
		{"not the aggregate line", "cpu0 100 0 50 800 20 0 10 40\n", cpuStat{}},
		{"too few columns", "cpu  100 0 50\n", cpuStat{}},
		{"not a number", "cpu  100 0 50 800 20 0 10 x\n", cpuStat{}},
		{"empty", "", cpuStat{}},
	} {
		if got := parseCPUStat(tc.data); got != tc.want {
			t.Errorf("%s: parseCPUStat = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// The factor is positive and finite whether or not /proc/stat is readable,
// and every measurement is kept.
func TestHostSpeedMeasure(t *testing.T) {
	hs, err := newHostSpeed()
	if err != nil {
		t.Fatal(err)
	}
	defer hs.close()
	for i := 0; i < 2; i++ {
		if f := hs.measure(); !(f > 0 && f < 1e3) {
			t.Fatalf("measurement %d: factor %v", i, f)
		}
	}
	if len(hs.samples) != 2 || hs.stale() {
		t.Fatalf("%d samples kept, stale %v", len(hs.samples), hs.stale())
	}
}
