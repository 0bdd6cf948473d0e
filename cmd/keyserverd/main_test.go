package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"groupkey/internal/store"
)

// runOnce runs the daemon with a stop channel that has already fired, so
// an accepted flag set starts, serves nothing and shuts down at once.
func runOnce(args ...string) error {
	stop := make(chan os.Signal)
	close(stop)
	return run(args, io.Discard, stop)
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		why  string
		args []string
	}{
		{"unknown scheme accepted", []string{"-scheme", "bogus"}},
		{"unlistenable address accepted", []string{"-listen", "999.999.999.999:1"}},
		{"unlistenable metrics address accepted", []string{"-listen", "127.0.0.1:0", "-metrics", "999.999.999.999:1"}},
		{"-group-scheme accepted for a group outside the default one group", []string{"-group-scheme", "1=naive", "-listen", "127.0.0.1:0"}},
		{"-group-scheme accepted for a group outside -groups", []string{"-groups", "2", "-group-scheme", "5=naive", "-listen", "127.0.0.1:0"}},
		{"multi-group path accepted an unlistenable address", []string{"-groups", "2", "-listen", "999.999.999.999:1"}},
		{"-state-key accepted with two groups", []string{"-groups", "2", "-state-key", "k", "-listen", "127.0.0.1:0"}},
		{"-udp accepted with two groups", []string{"-groups", "2", "-udp", "127.0.0.1:0", "-listen", "127.0.0.1:0"}},
		{"-groups 0 accepted", []string{"-groups", "0", "-listen", "127.0.0.1:0"}},
	} {
		if err := runOnce(tc.args...); err == nil {
			t.Error(tc.why)
		}
	}
	if err := runOnce("-group-scheme", "0=naive", "-listen", "127.0.0.1:0"); err != nil {
		t.Errorf("-group-scheme for group 0 of one group: %v", err)
	}
}

// syncBuffer is a bytes.Buffer safe for the daemon's concurrent logging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAdviseLogsEveryGroup: -advise runs the adaptive advisor for every
// hosted group, not only a single-group daemon's.
func TestAdviseLogsEveryGroup(t *testing.T) {
	var out syncBuffer
	stop := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-groups", "2", "-advise", "20ms", "-period", "1h"}, &out, stop)
	}()
	deadline := time.After(10 * time.Second)
	for !strings.Contains(out.String(), "advisor: group 0:") || !strings.Contains(out.String(), "advisor: group 1:") {
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		case <-deadline:
			t.Fatalf("advisor never logged both groups:\n%s", out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestParseGroupSchemes(t *testing.T) {
	got, err := parseGroupSchemes("0=onetree, 7=tt", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d overrides, want 2", len(got))
	}
	if got[0].Kind != store.SchemeOneTree {
		t.Errorf("group 0 kind = %v", got[0].Kind)
	}
	if got[7].Kind != store.SchemeTT || got[7].SPeriodK != 4 {
		t.Errorf("group 7 = %+v", got[7])
	}
	if m, err := parseGroupSchemes("", 4); err != nil || m != nil {
		t.Errorf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{"7", "x=tt", "7=bogus", "1=tt,1=qt"} {
		if _, err := parseGroupSchemes(bad, 4); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
