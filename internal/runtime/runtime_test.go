package runtime

import (
	"slices"
	"strings"
	"testing"
)

// TestCodecTable pins the fixed codec table: two names, "" meaning the
// binary codec, and an unknown name refused with both listed.
func TestCodecTable(t *testing.T) {
	if got := Codecs(); !slices.Equal(got, []string{"binary", "gob"}) {
		t.Fatalf("Codecs() = %v, want [binary gob]", got)
	}
	for name, want := range map[string]string{"": "binary", "binary": "binary", "gob": "gob"} {
		c, err := NewCodec(name)
		if err != nil {
			t.Fatalf("NewCodec(%q): %v", name, err)
		}
		if c.Name() != want {
			t.Errorf("NewCodec(%q).Name() = %q, want %q", name, c.Name(), want)
		}
	}
	_, err := NewCodec("json")
	if err == nil || !strings.Contains(err.Error(), `"json"`) || !strings.Contains(err.Error(), "[binary gob]") {
		t.Fatalf("NewCodec(json) error = %v, want one naming json and listing [binary gob]", err)
	}
}

// TestSocketConfigValidate walks every rejection and the config that
// passes.
func TestSocketConfigValidate(t *testing.T) {
	ok := func() *SocketConfig {
		return &SocketConfig{Listen: "a:1", Peers: []string{"a:1", "b:1"}, Group: 0}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  *SocketConfig
		want string
	}{
		{"nil", nil, "nil socket config"},
		{"no peers", &SocketConfig{Listen: "a:1"}, "at least one peer"},
		{"negative group", func() *SocketConfig { c := ok(); c.Group = -1; return c }(), "group -1 out of range [0, 2)"},
		{"group past the peers", func() *SocketConfig { c := ok(); c.Group = 2; return c }(), "group 2 out of range [0, 2)"},
		{"no listen address", func() *SocketConfig { c := ok(); c.Listen = ""; return c }(), "needs a listen address"},
		{"unknown codec", func() *SocketConfig { c := ok(); c.Codec = "json"; return c }(), `unknown codec "json" (one of [binary gob])`},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	for _, codec := range []string{"", "binary", "gob"} {
		c := ok()
		c.Codec = codec
		if err := c.Validate(); err != nil {
			t.Errorf("codec %q rejected: %v", codec, err)
		}
	}
}

// fakeTimer records the calls DropTimer makes, in order.
type fakeTimer struct{ calls []string }

func (f *fakeTimer) Cancel() bool {
	f.calls = append(f.calls, "Cancel")
	return true
}

func (f *fakeTimer) Release() { f.calls = append(f.calls, "Release") }

// TestDropTimer: a nil handle is left alone; an armed one is cancelled,
// then released, then cleared, and a second drop touches nothing.
func TestDropTimer(t *testing.T) {
	var none Timer
	DropTimer(&none)
	if none != nil {
		t.Fatalf("dropping a nil handle set it to %v", none)
	}

	f := &fakeTimer{}
	var armed Timer = f
	DropTimer(&armed)
	if armed != nil {
		t.Fatal("DropTimer left the field set")
	}
	if !slices.Equal(f.calls, []string{"Cancel", "Release"}) {
		t.Fatalf("DropTimer made calls %v, want [Cancel Release]", f.calls)
	}
	DropTimer(&armed)
	if len(f.calls) != 2 {
		t.Fatalf("a second DropTimer reached the released handle: %v", f.calls)
	}
}

// TestRegisterBackendPanics: RegisterBackend refuses the three built-in
// names, which the harness would otherwise build in its place, an
// empty name, a nil factory and a second registration of one name.
func TestRegisterBackendPanics(t *testing.T) {
	f := func(BackendConfig) (Runtime, error) { return nil, nil }
	RegisterBackend("test-extra", f)
	if RegisteredBackend("test-extra") == nil || RegisteredBackend("sim") != nil {
		t.Fatal("RegisteredBackend does not return exactly the added backends")
	}
	for _, tc := range []struct {
		what string
		name string
		f    BackendFactory
	}{
		{"sim", "sim", f},
		{"socket", "socket", f},
		{"an empty name", "", f},
		{"a nil factory", "test-nil", nil},
		{"a duplicate", "test-extra", f},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterBackend with %s did not panic", tc.what)
				}
			}()
			RegisterBackend(tc.name, tc.f)
		}()
	}
}
