package basefs_test

import (
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// TestSupervisorKeepsDeviceCalls is the supervised twin of
// TestExtentVectoringCutsDeviceCalls: the same trace under core.Mount must
// make exactly the device write calls and cold read calls the bare base
// makes, so the fence between them forwards every run and adds no call.
func TestSupervisorKeepsDeviceCalls(t *testing.T) {
	supervised := func(dev blockdev.Device) (fsapi.FS, func() error, error) {
		fs, err := core.Mount(dev, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		return fs, fs.Unmount, nil
	}
	bareW, bareR := basefs.SequentialFileCalls(t, basefs.MountBare)
	supW, supR := basefs.SequentialFileCalls(t, supervised)
	t.Logf("bare base: %d write calls, %d cold read calls; supervised: %d, %d", bareW, bareR, supW, supR)
	if supW != bareW || supR != bareR {
		t.Errorf("device calls: bare base %d writes, %d cold reads; supervised %d writes, %d cold reads",
			bareW, bareR, supW, supR)
	}
}
