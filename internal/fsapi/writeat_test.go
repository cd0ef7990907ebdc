package fsapi_test

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/shadowfs"
	"repro/internal/volmgr"
)

// TestWriteAtDoesNotRetainPayload holds every implementation to the
// WriteAt ownership rule: once WriteAt returns, the caller may scribble on
// its buffer, and the file still reads back the bytes it wrote. Two writes
// of more than a block bracket an fsync, so on the supervised
// implementations the second write's payload can land in a buffer the op
// log dropped at the first one's stable point; a sub-block write covers the
// payloads the log never pools.
func TestWriteAtDoesNotRetainPayload(t *testing.T) {
	format := func(t *testing.T) blockdev.Device {
		dev := blockdev.NewMem(8192)
		if _, err := mkfs.Format(dev, mkfs.Options{NumInodes: 512, JournalBlocks: 64}); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	supervised := func(t *testing.T) *core.FS {
		sup, err := core.Mount(format(t), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sup.Kill)
		return sup
	}
	cases := []struct {
		name  string
		mount func(t *testing.T) fsapi.FS
	}{
		{"basefs", func(t *testing.T) fsapi.FS {
			fs, err := basefs.Mount(format(t), basefs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fs.Kill)
			return fs
		}},
		{"shadowfs", func(t *testing.T) fsapi.FS {
			sh, err := shadowfs.New(format(t), shadowfs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return sh
		}},
		{"model", func(t *testing.T) fsapi.FS {
			dev := format(t)
			sb, err := mkfs.ReadSuperblock(dev)
			if err != nil {
				t.Fatal(err)
			}
			return model.New(sb)
		}},
		{"core", func(t *testing.T) fsapi.FS { return supervised(t) }},
		{"volmgr", func(t *testing.T) fsapi.FS {
			m, err := volmgr.New(volmgr.Config{PoolBlocks: 8192})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Shutdown() })
			v, err := m.Create("v", volmgr.VolumeConfig{Blocks: 8192})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
		{"fswire", func(t *testing.T) fsapi.FS {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := fswire.NewServer(fswire.Single(supervised(t)))
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			c, err := fswire.Dial(ln.Addr().String(), "")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				c.Hangup()
				srv.Close()
				if err := <-done; err != nil {
					t.Errorf("serve: %v", err)
				}
			})
			return c
		}},
	}
	writes := []struct {
		off     int64
		n       int
		fsyncAt bool // fsync after this write
	}{
		{0, 64<<10 + 100, true},
		{128 << 10, 64 << 10, false},
		{256 << 10, 100, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.mount(t)
			fd, err := f.Create("/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			for i, w := range writes {
				data := make([]byte, w.n)
				for j := range data {
					data[j] = byte(j*7 + i + 1)
				}
				want = append(want, bytes.Clone(data))
				if n, err := f.WriteAt(fd, w.off, data); err != nil || n != w.n {
					t.Fatalf("write %d: (%d, %v)", i, n, err)
				}
				for j := range data {
					data[j] = 0xEE
				}
				if w.fsyncAt {
					if err := f.Fsync(fd); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i, w := range writes {
				got, err := f.ReadAt(fd, w.off, w.n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("write %d reads back changed after the caller scribbled on its buffer", i)
				}
			}
		})
	}
}
