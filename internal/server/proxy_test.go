package server

import (
	"io"
	"net"
	"testing"

	"groupkey/internal/wire"
)

// newTamperingProxy starts a man-in-the-middle relay to target that flips
// one signed byte of every server→client rekey frame, leaving all other
// traffic intact. It returns the proxy's listen address.
func newTamperingProxy(t *testing.T, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })

	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			upstream, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			// client → server: verbatim.
			go func() {
				defer upstream.Close()
				defer client.Close()
				io.Copy(upstream, client) //nolint:errcheck // relay teardown is the signal
			}()
			// server → client: per-frame, corrupting rekeys.
			go func() {
				defer upstream.Close()
				defer client.Close()
				for {
					typ, payload, err := wire.ReadFrame(upstream)
					if err != nil {
						return
					}
					if typ == wire.MsgRekeySparse && len(payload) > 0 {
						payload[0] ^= 0x01 // the epoch: the root signature no longer verifies
					}
					if err := wire.WriteFrame(client, typ, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
