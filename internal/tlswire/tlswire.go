// Package tlswire emulates the TLS wire protocol at record granularity.
//
// The pinning study's dynamic methodology (§4.2.2 of the paper) never
// decrypts traffic: it classifies connections by the *shape* of the record
// stream — which records appear, in which direction, with what lengths, and
// how the connection is torn down (TLS alert, TCP RST, TCP FIN, or silent
// disuse). This package therefore reproduces record framing, version and
// cipher negotiation, certificate delivery, pin enforcement and failure
// signatures faithfully, while replacing bulk cryptography with structured
// messages: a passive observer can see exactly what a real observer would
// (ClientHello contents, cleartext certificates in TLS <= 1.2, record types
// and lengths) and nothing more. In TLS 1.3, every post-ServerHello record
// is disguised as application_data on the wire, exactly as in RFC 8446,
// which is what makes the paper's 1.3 heuristics necessary.
package tlswire

import (
	"errors"
	"fmt"
	"time"

	"pinscope/internal/pki"
)

// Version is a TLS protocol version.
type Version uint16

const (
	TLS10 Version = 0x0301
	TLS11 Version = 0x0302
	TLS12 Version = 0x0303
	TLS13 Version = 0x0304
)

func (v Version) String() string {
	switch v {
	case TLS10:
		return "TLS1.0"
	case TLS11:
		return "TLS1.1"
	case TLS12:
		return "TLS1.2"
	case TLS13:
		return "TLS1.3"
	}
	return fmt.Sprintf("TLS(%#04x)", uint16(v))
}

// CipherSuite is a TLS cipher suite identifier.
type CipherSuite uint16

// A representative suite registry. Values follow IANA assignments where
// they exist.
const (
	// TLS 1.3 suites.
	TLS_AES_128_GCM_SHA256       CipherSuite = 0x1301
	TLS_AES_256_GCM_SHA384       CipherSuite = 0x1302
	TLS_CHACHA20_POLY1305_SHA256 CipherSuite = 0x1303

	// Strong TLS <= 1.2 suites.
	ECDHE_ECDSA_WITH_AES_128_GCM_SHA256 CipherSuite = 0xc02b
	ECDHE_ECDSA_WITH_AES_256_GCM_SHA384 CipherSuite = 0xc02c
	ECDHE_RSA_WITH_AES_128_GCM_SHA256   CipherSuite = 0xc02f
	ECDHE_RSA_WITH_AES_256_GCM_SHA384   CipherSuite = 0xc030

	// Weak suites (DES, 3DES, RC4, EXPORT) — the "bad ciphers" of Table 8.
	RSA_WITH_RC4_128_SHA          CipherSuite = 0x0005
	RSA_WITH_DES_CBC_SHA          CipherSuite = 0x0009
	RSA_WITH_3DES_EDE_CBC_SHA     CipherSuite = 0x000a
	RSA_EXPORT_WITH_RC4_40_MD5    CipherSuite = 0x0003
	RSA_EXPORT_WITH_DES40_CBC_SHA CipherSuite = 0x0008
)

var cipherNames = map[CipherSuite]string{
	TLS_AES_128_GCM_SHA256:              "TLS_AES_128_GCM_SHA256",
	TLS_AES_256_GCM_SHA384:              "TLS_AES_256_GCM_SHA384",
	TLS_CHACHA20_POLY1305_SHA256:        "TLS_CHACHA20_POLY1305_SHA256",
	ECDHE_ECDSA_WITH_AES_128_GCM_SHA256: "ECDHE_ECDSA_WITH_AES_128_GCM_SHA256",
	ECDHE_ECDSA_WITH_AES_256_GCM_SHA384: "ECDHE_ECDSA_WITH_AES_256_GCM_SHA384",
	ECDHE_RSA_WITH_AES_128_GCM_SHA256:   "ECDHE_RSA_WITH_AES_128_GCM_SHA256",
	ECDHE_RSA_WITH_AES_256_GCM_SHA384:   "ECDHE_RSA_WITH_AES_256_GCM_SHA384",
	RSA_WITH_RC4_128_SHA:                "RSA_WITH_RC4_128_SHA",
	RSA_WITH_DES_CBC_SHA:                "RSA_WITH_DES_CBC_SHA",
	RSA_WITH_3DES_EDE_CBC_SHA:           "RSA_WITH_3DES_EDE_CBC_SHA",
	RSA_EXPORT_WITH_RC4_40_MD5:          "RSA_EXPORT_WITH_RC4_40_MD5",
	RSA_EXPORT_WITH_DES40_CBC_SHA:       "RSA_EXPORT_WITH_DES40_CBC_SHA",
}

func (c CipherSuite) String() string {
	if n, ok := cipherNames[c]; ok {
		return n
	}
	return fmt.Sprintf("CipherSuite(%#04x)", uint16(c))
}

var weakSuites = map[CipherSuite]bool{
	RSA_WITH_RC4_128_SHA:          true,
	RSA_WITH_DES_CBC_SHA:          true,
	RSA_WITH_3DES_EDE_CBC_SHA:     true,
	RSA_EXPORT_WITH_RC4_40_MD5:    true,
	RSA_EXPORT_WITH_DES40_CBC_SHA: true,
}

// IsWeak reports whether the suite is susceptible to known attacks
// (DES/3DES/RC4/EXPORT families).
func (c CipherSuite) IsWeak() bool { return weakSuites[c] }

// TLS13Suite reports whether the suite is exclusive to TLS 1.3.
func (c CipherSuite) TLS13Suite() bool { return c >= 0x1301 && c <= 0x1303 }

// ModernSuites is a sensible default offer for a well-configured client.
var ModernSuites = []CipherSuite{
	TLS_AES_128_GCM_SHA256, TLS_AES_256_GCM_SHA384, TLS_CHACHA20_POLY1305_SHA256,
	ECDHE_ECDSA_WITH_AES_128_GCM_SHA256, ECDHE_RSA_WITH_AES_128_GCM_SHA256,
	ECDHE_ECDSA_WITH_AES_256_GCM_SHA384, ECDHE_RSA_WITH_AES_256_GCM_SHA384,
}

// LegacySuites is ModernSuites plus weak suites, as advertised by clients
// that never pruned their defaults.
var LegacySuites = append(append([]CipherSuite{}, ModernSuites...),
	RSA_WITH_3DES_EDE_CBC_SHA, RSA_WITH_RC4_128_SHA, RSA_WITH_DES_CBC_SHA,
	RSA_EXPORT_WITH_RC4_40_MD5, RSA_EXPORT_WITH_DES40_CBC_SHA,
)

// RecordType is the content type in a TLS record header, as visible to a
// passive observer.
type RecordType uint8

const (
	RecChangeCipherSpec RecordType = 20
	RecAlert            RecordType = 21
	RecHandshake        RecordType = 22
	RecAppData          RecordType = 23
)

func (r RecordType) String() string {
	switch r {
	case RecChangeCipherSpec:
		return "change_cipher_spec"
	case RecAlert:
		return "alert"
	case RecHandshake:
		return "handshake"
	case RecAppData:
		return "application_data"
	}
	return fmt.Sprintf("record(%d)", uint8(r))
}

// AlertCode is a TLS alert description.
type AlertCode uint8

const (
	AlertCloseNotify        AlertCode = 0
	AlertHandshakeFailure   AlertCode = 40
	AlertBadCertificate     AlertCode = 42
	AlertCertificateExpired AlertCode = 45
	AlertCertificateUnknown AlertCode = 46
	AlertUnknownCA          AlertCode = 48
	AlertProtocolVersion    AlertCode = 70
	AlertInternalError      AlertCode = 80
)

func (a AlertCode) String() string {
	switch a {
	case AlertCloseNotify:
		return "close_notify"
	case AlertHandshakeFailure:
		return "handshake_failure"
	case AlertBadCertificate:
		return "bad_certificate"
	case AlertCertificateExpired:
		return "certificate_expired"
	case AlertCertificateUnknown:
		return "certificate_unknown"
	case AlertUnknownCA:
		return "unknown_ca"
	case AlertProtocolVersion:
		return "protocol_version"
	case AlertInternalError:
		return "internal_error"
	}
	return fmt.Sprintf("alert(%d)", uint8(a))
}

// Wire framing constants used to derive realistic record lengths.
const (
	recordHeaderLen = 5
	aeadOverhead    = 16 // AEAD tag
	tls13InnerType  = 1  // hidden content-type byte in TLS 1.3 records

	// EncryptedAlertWireLen is the on-wire length of an encrypted TLS 1.3
	// alert record: header + 2 alert bytes + inner type + AEAD tag. The
	// paper's second heuristic compares the client's second encrypted
	// record against exactly this length.
	EncryptedAlertWireLen = recordHeaderLen + 2 + tls13InnerType + aeadOverhead // 24

	// finishedLen is the on-wire length of an encrypted Finished message
	// (32-byte verify_data under SHA-256 transcripts).
	finishedWireLen = recordHeaderLen + 4 + 32 + tls13InnerType + aeadOverhead

	// FinishedWireLen exports the Finished record length for the detector's
	// record-size fingerprinting (§4.2.2 style): the client's first encrypted
	// record on every successful TLS 1.3 connection has exactly this length.
	FinishedWireLen = finishedWireLen

	// SessionTicketWireLen is the on-wire length of a NewSessionTicket
	// record (4-byte handshake header + 180-byte ticket body). Tickets,
	// Finished, and alerts are the only server records that follow the
	// certificate flight on connections the client never used, and all
	// three have fixed lengths — so a later server record of any other
	// length fingerprints an application response.
	SessionTicketWireLen = recordHeaderLen + 4 + 180 + tls13InnerType + aeadOverhead
)

// HelloInfo is the observable content of a ClientHello: everything here is
// cleartext on a real wire too.
type HelloInfo struct {
	SNI          string
	MaxVersion   Version
	CipherSuites []CipherSuite
	// ALPN is carried for realism in fingerprints; the detector ignores it.
	ALPN []string
}

// ServerHelloInfo is the observable content of a ServerHello.
type ServerHelloInfo struct {
	Version Version
	Cipher  CipherSuite
}

// handshakeKind distinguishes the handshake messages the emulation models.
type handshakeKind uint8

const (
	hsClientHello handshakeKind = iota + 1
	hsServerHello
	hsCertificate
	hsServerHelloDone
	hsClientKeyExchange
	hsFinished
	hsNewSessionTicket
)

// Record is one TLS record in flight. WireType and Length are what a
// passive observer sees; the remaining fields model message content. In
// TLS 1.3, records after ServerHello carry WireType RecAppData while the
// inner type (hidden from observers) says what they really are.
type Record struct {
	WireType RecordType
	Length   int // full on-wire length including the 5-byte header

	// Cleartext-observable content (nil/zero when not applicable):
	Hello  *HelloInfo       // ClientHello
	SHello *ServerHelloInfo // ServerHello
	Certs  pki.Chain        // cleartext Certificate message (TLS <= 1.2 only)
	Alert  AlertCode        // plaintext alert (TLS <= 1.2 only)

	// Endpoint-only content. A passive capture must never copy these; the
	// netem tap extracts a Summary instead.
	inner      RecordType
	hsKind     handshakeKind
	hiddenCert pki.Chain // TLS 1.3 certificate delivery
	hiddenAlrt AlertCode
	appData    []byte
}

// Summary is the passive observer's view of a record, as stored in packet
// captures.
type Summary struct {
	FromClient bool
	WireType   RecordType
	Length     int
	Hello      *HelloInfo
	SHello     *ServerHelloInfo
	Certs      pki.Chain // only populated when cleartext on the wire
	Alert      AlertCode // only meaningful for plaintext alert records
	HasAlert   bool
}

// Summarize produces the observer view of the record.
func (r Record) Summarize(fromClient bool) Summary {
	s := Summary{
		FromClient: fromClient,
		WireType:   r.WireType,
		Length:     r.Length,
		Hello:      r.Hello,
		SHello:     r.SHello,
		Certs:      r.Certs,
	}
	if r.WireType == RecAlert {
		s.Alert = r.Alert
		s.HasAlert = true
	}
	return s
}

// CloseFlag models how the TCP connection under the TLS session ends.
type CloseFlag uint8

const (
	CloseNone CloseFlag = iota
	CloseFIN
	CloseRST
)

func (c CloseFlag) String() string {
	switch c {
	case CloseFIN:
		return "FIN"
	case CloseRST:
		return "RST"
	}
	return "none"
}

// Transport moves records between two TLS endpoints. Implementations are
// provided by internal/netem; mitmproxy interposes by owning a Transport on
// each side. A Transport is used by one goroutine at a time.
type Transport interface {
	// Send transmits one record to the peer.
	Send(Record) error
	// Recv waits for the next record from the peer. It returns
	// ErrPeerClosed (wrapped, carrying the close flag) once the peer has
	// closed and all buffered records are drained.
	Recv() (Record, error)
	// Close tears the connection down with the given TCP flag. Subsequent
	// Sends fail. Close is idempotent.
	Close(CloseFlag) error
}

// ErrPeerClosed is returned by Recv after the peer closed the transport.
var ErrPeerClosed = errors.New("tlswire: peer closed connection")

// PeerClosedError carries the close flag observed.
type PeerClosedError struct{ Flag CloseFlag }

func (e *PeerClosedError) Error() string {
	return fmt.Sprintf("tlswire: peer closed connection (%s)", e.Flag)
}

// Is makes errors.Is(err, ErrPeerClosed) work.
func (e *PeerClosedError) Is(target error) bool { return target == ErrPeerClosed }

// FailureMode is how a client reacts when certificate validation or pin
// checking fails. Different TLS libraries exhibit different signatures; the
// paper's detector must catch all of them (§4.2.2).
type FailureMode uint8

const (
	// FailAlertClose sends a bad_certificate alert then closes with FIN.
	FailAlertClose FailureMode = iota
	// FailReset aborts the TCP connection with RST and no alert.
	FailReset
	// FailSilentIdle completes the handshake but the application layer
	// swallows the pin error: the connection is never used and is
	// eventually closed with FIN. This produces the "established but
	// unused" signature.
	FailSilentIdle
)

func (f FailureMode) String() string {
	switch f {
	case FailAlertClose:
		return "alert+fin"
	case FailReset:
		return "rst"
	case FailSilentIdle:
		return "silent-idle"
	}
	return "unknown"
}

// chainWireLen approximates the length of a Certificate message from the
// real DER sizes of the chain.
func chainWireLen(chain pki.Chain) int {
	n := recordHeaderLen + 4 + 3 // record header + handshake header + length prefix
	for _, c := range chain {
		n += 3 + len(c.Raw)
	}
	return n
}

func helloWireLen(h *HelloInfo) int {
	n := recordHeaderLen + 4 + 2 + 32 + 1 + 32 // headers, version, random, session id
	n += 2 + 2*len(h.CipherSuites)
	n += 2 + 1 // compression
	n += 4 + len(h.SNI) + 5
	for _, a := range h.ALPN {
		n += len(a) + 1
	}
	n += 40 // misc extensions (supported_versions, key_share, ...)
	return n
}

func appDataWireLen(v Version, payload int) int {
	if v == TLS13 {
		return recordHeaderLen + payload + tls13InnerType + aeadOverhead
	}
	return recordHeaderLen + payload + aeadOverhead + 8 // explicit nonce/IV
}

// negotiate picks the session version and cipher. It returns an error when
// no overlap exists.
func negotiate(h *HelloInfo, minV, maxV Version, serverSuites []CipherSuite) (Version, CipherSuite, error) {
	v := h.MaxVersion
	if v > maxV {
		v = maxV
	}
	if v < minV {
		return 0, 0, fmt.Errorf("tlswire: no common protocol version (client max %s, server min %s)", h.MaxVersion, minV)
	}
	for _, sc := range serverSuites {
		for _, cc := range h.CipherSuites {
			if sc != cc {
				continue
			}
			// TLS 1.3 sessions need 1.3 suites and vice versa.
			if (v == TLS13) == sc.TLS13Suite() {
				return v, sc, nil
			}
		}
	}
	return 0, 0, errors.New("tlswire: no common cipher suite")
}

// now returns the wall-clock instant used for validity checks; nil-safe
// configs default to the study epoch.
func orEpoch(t time.Time) time.Time {
	if t.IsZero() {
		return pki.StudyEpoch
	}
	return t
}
