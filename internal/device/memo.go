package device

// memo.go is the handshake-outcome memo of the shared crypto plane. A
// study runs the same deterministic connection thousands of times: the
// observable outcome — the record summaries crossing the monitoring point
// and the close flags — is fully determined by (proxy presence, host,
// trust-store content, pin set, TLS parameters, payload length). The memo
// caches that outcome once per key and replays it into later captures
// without touching the network, collapsing repeated ECDSA chain
// verifications and record churn across every worker sharing the memo.
//
// What is deliberately NOT memoized:
//   - any run with an installed fault tap, device-layer faults, or hooks
//     (Measure disables the memo wholesale): injected faults must hit real
//     handshakes, and hooked runs feed the proxy's plaintext logs, which a
//     replay would leave empty;
//   - probe connections (ProbeChain) — they fetch genuine chains for PKI
//     classification and run once per destination anyway;
//   - payload content: record summaries carry only lengths, so the key
//     needs the payload's length, never its bytes.
//
// Replay preserves byte-identical exports because a live connection has
// nothing left to vary: netem drives client and server synchronously, so
// the full record sequence — including how client- and server-direction
// records interleave — and the close flags are a function of the key. The
// core equivalence test holds a memoized run to a cold run's exact export
// bytes.

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"pinscope/internal/netem"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

// HandshakeMemo caches connection outcomes keyed by everything that
// determines them. Safe for concurrent use by any number of devices and
// workers; the zero value is NOT ready, use NewHandshakeMemo.
type HandshakeMemo struct {
	m    sync.Map // key string -> *memoEntry
	hits atomic.Int64
}

// NewHandshakeMemo returns an empty memo.
func NewHandshakeMemo() *HandshakeMemo { return &HandshakeMemo{} }

type memoEntry struct {
	records     []tlswire.Summary
	clientClose tlswire.CloseFlag
	serverClose tlswire.CloseFlag
}

// Hits reports how many connections were served from the memo.
func (m *HandshakeMemo) Hits() int64 { return m.hits.Load() }

// Len reports how many distinct outcomes are cached.
func (m *HandshakeMemo) Len() int {
	n := 0
	m.m.Range(func(any, any) bool { n++; return true })
	return n
}

func (m *HandshakeMemo) load(key string) (*memoEntry, bool) {
	v, ok := m.m.Load(key)
	if !ok {
		return nil, false
	}
	m.hits.Add(1)
	return v.(*memoEntry), true
}

// fill snapshots a completed flow into the memo. Callers must only fill
// once the flow's connection is closed, so the snapshot is its final
// state. The records are cloned: the flow's view is recycled when its
// capture is released, while the memo keeps them for the process. The
// first fill for a key wins; concurrent workers produce identical outcomes
// for identical keys, so which one lands is immaterial.
func (m *HandshakeMemo) fill(key string, f *netem.Flow) {
	if _, ok := m.m.Load(key); ok {
		return
	}
	cc, sc := f.CloseFlags()
	m.m.LoadOrStore(key, &memoEntry{records: slices.Clone(f.Records()), clientClose: cc, serverClose: sc})
}

// pendingFill is a flow whose outcome will be memoized once the run's
// connections are all closed.
type pendingFill struct {
	key  string
	flow *netem.Flow
}

// memoKey encodes everything the outcome of a connection depends on. ALPN
// is omitted because no device code path sets it; if one ever does, it
// must join the key.
func memoKey(proxied bool, host string, store *pki.RootStore, pins *pki.PinSet,
	mode tlswire.FailureMode, maxV tlswire.Version, suites []tlswire.CipherSuite,
	payloadLen int) string {
	b := make([]byte, 0, 160)
	if proxied {
		b = append(b, 'P')
	} else {
		b = append(b, 'D')
	}
	b = append(b, '|')
	b = append(b, host...)
	b = append(b, '|')
	b = append(b, store.Digest()...)
	b = append(b, '|')
	b = append(b, pins.DigestKey()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(mode), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(maxV), 10)
	b = append(b, '|')
	for _, s := range suites {
		b = strconv.AppendUint(b, uint64(s), 10)
		b = append(b, '-')
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(payloadLen), 10)
	return string(b)
}
