package fsapi

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fserr"
)

func TestSplitPathBasics(t *testing.T) {
	cases := map[string][]string{
		"/":            {},
		"/a":           {"a"},
		"/a/b/c":       {"a", "b", "c"},
		"//a///b":      {"a", "b"},
		"/a/./b":       {"a", "b"},
		"/a/b/..":      {"a"},
		"/a/../b":      {"b"},
		"/..":          {},
		"/../..":       {},
		"/../a":        {"a"},
		"/a/b/../../c": {"c"},
		"/a/":          {"a"},
	}
	for path, want := range cases {
		got, err := SplitPath(nil, path)
		if err != nil {
			t.Errorf("SplitPath(%q): %v", path, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("SplitPath(%q) = %v, want %v", path, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("SplitPath(%q) = %v, want %v", path, got, want)
				break
			}
		}
	}
}

func TestSplitPathRejectsRelative(t *testing.T) {
	for _, path := range []string{"", "a", "a/b", "./a", "../a"} {
		if _, err := SplitPath(nil, path); !errors.Is(err, fserr.ErrInvalid) {
			t.Errorf("SplitPath(%q) = %v, want ErrInvalid", path, err)
		}
	}
}

func TestSplitDirBase(t *testing.T) {
	dir, base, err := SplitDirBase(nil, "/a/b/c")
	if err != nil || base != "c" || len(dir) != 2 || dir[0] != "a" || dir[1] != "b" {
		t.Errorf("SplitDirBase(/a/b/c) = (%v, %q, %v)", dir, base, err)
	}
	dir, base, err = SplitDirBase(nil, "/top")
	if err != nil || base != "top" || len(dir) != 0 {
		t.Errorf("SplitDirBase(/top) = (%v, %q, %v)", dir, base, err)
	}
	if _, _, err := SplitDirBase(nil, "/"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("SplitDirBase(/) = %v, want ErrInvalid", err)
	}
	if _, _, err := SplitDirBase(nil, "/a/.."); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("SplitDirBase(/a/..) = %v, want ErrInvalid (resolves to root)", err)
	}
}

// TestSplitPathIdempotentProperty: re-joining and re-splitting a normalized
// path is a fixed point.
func TestSplitPathIdempotentProperty(t *testing.T) {
	f := func(raw []string) bool {
		path := "/"
		for _, c := range raw {
			c = strings.Map(func(r rune) rune {
				if r == '/' || r == 0 {
					return 'x'
				}
				return r
			}, c)
			path += c + "/"
		}
		comps, err := SplitPath(nil, path)
		if err != nil {
			return false
		}
		rejoined := "/" + strings.Join(comps, "/")
		comps2, err := SplitPath(nil, rejoined)
		if err != nil {
			return false
		}
		if len(comps) != len(comps2) {
			return false
		}
		for i := range comps {
			if comps[i] != comps2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitPathNeverEmitsDotComponents(t *testing.T) {
	f := func(segments []uint8) bool {
		path := "/"
		opts := []string{"a", ".", "..", "bb", "", "c.d"}
		for _, s := range segments {
			path += opts[int(s)%len(opts)] + "/"
		}
		comps, err := SplitPath(nil, path)
		if err != nil {
			return false
		}
		for _, c := range comps {
			if c == "" || c == "." || c == ".." {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// referenceSplitPath is SplitPath as it was written over strings.Split: the
// specification the in-place scanner must match.
func referenceSplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fserr.ErrInvalid
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// checkSplitMatchesReference splits path into a fresh slice and into a
// stack-sized buffer that holds a prefix, and compares both with the
// reference.
func checkSplitMatchesReference(t *testing.T, path string) {
	t.Helper()
	want, wantErr := referenceSplitPath(path)
	got, err := SplitPath(nil, path)
	if !errors.Is(err, wantErr) || strings.Join(got, "/") != strings.Join(want, "/") || len(got) != len(want) {
		t.Fatalf("SplitPath(%q) = (%q, %v), reference (%q, %v)", path, got, err, want, wantErr)
	}
	var buf [16]string
	got, err = SplitPath(append(buf[:0], "prefix"), path)
	if wantErr != nil {
		if !errors.Is(err, wantErr) {
			t.Fatalf("SplitPath(prefix, %q) error %v, want %v", path, err, wantErr)
		}
		return
	}
	if err != nil || len(got) != len(want)+1 || got[0] != "prefix" || strings.Join(got[1:], "/") != strings.Join(want, "/") {
		t.Fatalf("SplitPath(prefix, %q) = (%q, %v), want prefix then %q", path, got, err, want)
	}
}

func TestSplitPathMatchesReference(t *testing.T) {
	for _, path := range []string{
		"/", "//", "//a//", "/.", "/..", "/../..", "/a/../..", "/../a/..",
		"/a/b/", "/a/b//", "/a/./b/.", ".", "..", "", "a", "a/b", "./a",
		"/a/.../b", "/.a/..b/", "/a/b/c/../../../../d",
	} {
		checkSplitMatchesReference(t, path)
	}
}

// TestSplitPathDeepSpills splits a path deeper than a 16-slot stack buffer:
// append must spill to the heap and keep every component.
func TestSplitPathDeepSpills(t *testing.T) {
	var want []string
	path := ""
	for i := 0; i < 40; i++ {
		c := string(rune('a'+i%26)) + strings.Repeat("x", i%3)
		want = append(want, c)
		path += "/" + c
	}
	var buf [16]string
	got, err := SplitPath(buf[:0], path+"/./q/..")
	if err != nil || strings.Join(got, "/") != strings.Join(want, "/") {
		t.Fatalf("SplitPath(deep) = (%q, %v), want %q", got, err, want)
	}
	checkSplitMatchesReference(t, path)
}

func FuzzSplitPath(f *testing.F) {
	for _, seed := range []string{"/", "//a//", ".", "/..", "/a/", "", "a/b", "/a/./b/../c"} {
		f.Add(seed)
	}
	f.Fuzz(checkSplitMatchesReference)
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("fresh clock not at zero")
	}
	if c.Tick() != 1 || c.Tick() != 2 || c.Now() != 2 {
		t.Error("tick sequence wrong")
	}
	c.Set(100)
	if c.Now() != 100 || c.Tick() != 101 {
		t.Error("Set/Tick interaction wrong")
	}
}
