package main

import (
	"crypto/ed25519"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
	"groupkey/internal/wire"
)

// A probe is one connected group member as the benchmark models it: a real
// TCP connection speaking the real wire codecs, whose timed path is one
// blocking wire.ReadFrame plus one timestamp. Everything a real member
// does with the frame afterwards (signature and multiproof verification,
// unwrapping) runs in the untimed drain between epochs, where it is timed
// on its own as member-side cost. With hundreds of members sharing the
// server's two cores, verifying inline would measure the load generator.
type probe struct {
	conn net.Conn

	// mu guards frames between the reader goroutine and the drain.
	mu     sync.Mutex
	frames []frameRec

	// Drain-owned state (the driver goroutine and its drain workers; never
	// the reader).
	id      keytree.MemberID
	mem     *member.Member
	pub     ed25519.PublicKey
	epoch   uint64 // newest rekey epoch applied
	leaving bool   // MsgLeave sent; frames from here on are a leaver's
	left    bool   // the server processed the leave
	leaveAt int    // scheduled departure epoch (two-class churn), 0 = unscheduled
	long    bool   // long-duration class (two-class churn)
}

// frameRec is one frame as the reader saw it.
type frameRec struct {
	at      time.Duration // clock reading when wire.ReadFrame returned
	typ     wire.MsgType
	payload []byte
}

// benchClock is the run's single monotonic time base.
type benchClock struct{ base time.Time }

func (c benchClock) now() time.Duration { return time.Since(c.base) }

// dialProbe connects and sends the join request; admission happens at the
// server's next rekey. arrived counts every frame any probe reads, which
// is how the driver learns an epoch has fully landed without a shared
// channel on the timed path.
func dialProbe(addr string, longLived bool, clk benchClock, arrived *atomic.Int64, wg *sync.WaitGroup) (*probe, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("probe dial: %w", err)
	}
	req := wire.JoinRequest{LossRate: -1, LongLived: longLived, Caps: wire.CapSparse}
	if err := wire.WriteFrame(conn, wire.MsgJoin, req.Encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("probe join: %w", err)
	}
	p := &probe{conn: conn, long: longLived}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.readLoop(clk, arrived)
	}()
	return p, nil
}

func (p *probe) readLoop(clk benchClock, arrived *atomic.Int64) {
	for {
		typ, payload, err := wire.ReadFrame(p.conn)
		at := clk.now()
		if err != nil {
			return // closed: by the server once we left, or by env.close
		}
		p.mu.Lock()
		p.frames = append(p.frames, frameRec{at: at, typ: typ, payload: payload})
		p.mu.Unlock()
		arrived.Add(1)
	}
}

// leave asks the server to evict this member at its next rekey.
func (p *probe) leave() error {
	p.leaving = true
	return wire.WriteFrame(p.conn, wire.MsgLeave, nil)
}

// take hands the frames read since the last call to the drain.
func (p *probe) take() []frameRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.frames
	p.frames = nil
	return out
}

// drained is what one probe's frames of one epoch amounted to.
type drained struct {
	welcomeAt time.Duration // 0 when no welcome arrived
	rekeyAt   time.Duration // 0 when no rekey frame arrived
	rekeyLen  int           // sparse payload bytes
	readyUs   float64       // DecodeSparseRekey + Apply
	applyUs   float64       // Apply alone
	dataAt    []time.Duration
	err       error
}

// drain processes the frames of one epoch the way a real member would:
// welcome, then the verified sparse rekey applied to the key store. Data
// frames are only timestamped, except that checkData opens the first one
// (signature, then AES-GCM under the member's copy of the group key, whose
// ID is gk) as a sample.
func (p *probe) drain(checkData bool, gk keycrypt.KeyID) drained {
	var d drained
	for _, f := range p.take() {
		switch f.typ {
		case wire.MsgWelcome:
			w, err := wire.DecodeSignedWelcome(f.payload)
			if err != nil {
				d.err = fmt.Errorf("welcome: %w", err)
				return d
			}
			p.id, p.pub = w.Member, w.ServerKey
			p.mem = member.New(w.Member, w.Key)
			d.welcomeAt = f.at
		case wire.MsgRekeySparse:
			if p.mem == nil {
				d.err = fmt.Errorf("rekey before welcome")
				return d
			}
			t0 := time.Now()
			sr, err := wire.DecodeSparseRekey(p.pub, f.payload)
			t1 := time.Now()
			if err != nil {
				d.err = fmt.Errorf("member %d sparse rekey: %w", p.id, err)
				return d
			}
			p.mem.Apply(sr.Items)
			t2 := time.Now()
			p.epoch = sr.Epoch
			d.rekeyAt, d.rekeyLen = f.at, len(f.payload)
			d.applyUs = float64(t2.Sub(t1)) / 1e3
			d.readyUs = float64(t2.Sub(t0)) / 1e3
		case wire.MsgData:
			d.dataAt = append(d.dataAt, f.at)
			if checkData {
				checkData = false // one frame per drain is the sample
				inner, err := wire.OpenSignedRekey(p.pub, f.payload)
				if err != nil {
					d.err = fmt.Errorf("member %d data signature: %w", p.id, err)
					return d
				}
				k, _ := p.mem.Key(gk)
				if _, err := keycrypt.Open(k, inner); err != nil {
					d.err = fmt.Errorf("member %d data under group key: %w", p.id, err)
					return d
				}
			}
		case wire.MsgError:
			d.err = fmt.Errorf("member %d: server error: %s", p.id, f.payload)
			return d
		default:
			d.err = fmt.Errorf("member %d: unexpected %v frame", p.id, f.typ)
			return d
		}
	}
	return d
}
