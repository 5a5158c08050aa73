// Package pki models the public-key infrastructure of the study: root
// stores as shipped on Android (AOSP + OEM additions), iOS and in the
// Mozilla CA bundle; certificate authorities that issue real X.509
// certificates (ECDSA P-256); and the pin representations apps embed
// (SPKI SHA-1/SHA-256 hashes in base64 or hex, raw PEM/DER certificates).
//
// All certificates are genuine crypto/x509 certificates, so chain
// validation, hostname matching and expiry checks exercise the real
// algorithms. Key generation is deterministic: private scalars are derived
// from a detrand stream, which makes every SubjectPublicKeyInfo — and
// therefore every pin — reproducible from the world seed.
package pki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/base64"
	"encoding/hex"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"sync"
	"time"

	"pinscope/internal/detrand"
)

// StudyEpoch is the reference wall-clock instant of the simulated study.
// The paper collected data in 2021; all validity windows are expressed
// relative to this instant so the world never depends on the host clock.
var StudyEpoch = time.Date(2021, time.May, 15, 12, 0, 0, 0, time.UTC)

// Entity is a key pair with its certificate. It may be a root CA, an
// intermediate CA, or a leaf.
type Entity struct {
	Cert *x509.Certificate
	Key  *ecdsa.PrivateKey
}

// Authority is an issuing certificate authority. It holds no mutable
// state: the crypto plane shares one Authority across all study workers,
// and the world generator issues from the public intermediates on every
// core, so an issued certificate must depend on nothing but its own
// issuance (see contentSerial).
type Authority struct {
	Entity
}

// deterministicKey derives an ECDSA P-256 private key from rng without
// consulting crypto/rand, so the same world seed always yields the same
// SubjectPublicKeyInfo (and therefore the same pins).
func deterministicKey(rng *detrand.Source) *ecdsa.PrivateKey {
	curve := elliptic.P256()
	n := curve.Params().N
	for {
		b := make([]byte, 32)
		rng.Read(b)
		d := new(big.Int).SetBytes(b)
		if d.Sign() == 0 || d.Cmp(n) >= 0 {
			continue
		}
		priv := &ecdsa.PrivateKey{D: d}
		priv.PublicKey.Curve = curve
		priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
		return priv
	}
}

// NewRootCA creates a self-signed root CA. Validity is expressed as years
// around StudyEpoch.
func NewRootCA(rng *detrand.Source, commonName, org string, validYears int) (*Authority, error) {
	key := deterministicKey(rng)
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(int64(rng.Intn(1 << 30))),
		Subject: pkix.Name{
			CommonName:   commonName,
			Organization: []string{org},
		},
		NotBefore:             StudyEpoch.AddDate(-validYears/2, 0, 0),
		NotAfter:              StudyEpoch.AddDate(validYears, 0, 0),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign,
		BasicConstraintsValid: true,
	}
	// Interned by TBS content like leaves (see issueLeafWithKey): a CA
	// re-derived from the same seed is the certificate already issued.
	cert, err := internCertificate(internKey(issueRoot, nil, tmpl, &key.PublicKey), func() (*x509.Certificate, error) {
		//pinlint:allow detrandonly ECDSA signing is hedged-randomized by design; signature bytes never reach exported artifacts — pins hash the detrand-derived SPKI
		der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
		if err != nil {
			return nil, fmt.Errorf("pki: create root %q: %w", commonName, err)
		}
		return parseIssued(der, nil)
	})
	if err != nil {
		return nil, err
	}
	return &Authority{Entity: Entity{Cert: cert, Key: key}}, nil
}

// NewIntermediate issues an intermediate CA under parent.
func (a *Authority) NewIntermediate(rng *detrand.Source, commonName string, validYears int) (*Authority, error) {
	key := deterministicKey(rng)
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(int64(rng.Intn(1 << 20))),
		Subject: pkix.Name{
			CommonName:   commonName,
			Organization: a.Cert.Subject.Organization,
		},
		NotBefore:             StudyEpoch.AddDate(-1, 0, 0),
		NotAfter:              StudyEpoch.AddDate(validYears, 0, 0),
		IsCA:                  true,
		MaxPathLenZero:        false,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign,
		BasicConstraintsValid: true,
	}
	k := internKey(issueIntermediate, a.Cert, tmpl, &key.PublicKey)
	tmpl.SerialNumber = contentSerial(k, tmpl.SerialNumber)
	cert, err := internCertificate(k, func() (*x509.Certificate, error) {
		//pinlint:allow detrandonly ECDSA signing is hedged-randomized by design; signature bytes never reach exported artifacts — pins hash the detrand-derived SPKI
		der, err := x509.CreateCertificate(rand.Reader, tmpl, a.Cert, &key.PublicKey, a.Key)
		if err != nil {
			return nil, fmt.Errorf("pki: create intermediate %q: %w", commonName, err)
		}
		return parseIssued(der, a.Cert)
	})
	if err != nil {
		return nil, err
	}
	return &Authority{Entity: Entity{Cert: cert, Key: key}}, nil
}

// LeafOptions control leaf issuance.
type LeafOptions struct {
	// NotBefore/NotAfter default to [StudyEpoch-90d, StudyEpoch+275d]
	// (a typical ~1y leaf) when zero.
	NotBefore time.Time
	NotAfter  time.Time
	// ExtraDNS adds SANs beyond the primary hostname.
	ExtraDNS []string
}

// IssueLeaf issues a server certificate for hostname.
func (a *Authority) IssueLeaf(rng *detrand.Source, hostname string, opts LeafOptions) (*Entity, error) {
	key := deterministicKey(rng)
	return a.issueLeafWithKey(rng, hostname, key, opts)
}

// ReissueLeaf issues a fresh certificate for the same hostname reusing the
// key of prev. This models operators who rotate certificates but keep the
// key pair, which is what makes SPKI pinning survive renewal (§5.3.3).
func (a *Authority) ReissueLeaf(rng *detrand.Source, prev *Entity, opts LeafOptions) (*Entity, error) {
	host := ""
	if len(prev.Cert.DNSNames) > 0 {
		host = prev.Cert.DNSNames[0]
	}
	return a.issueLeafWithKey(rng, host, prev.Key, opts)
}

func (a *Authority) issueLeafWithKey(rng *detrand.Source, hostname string, key *ecdsa.PrivateKey, opts LeafOptions) (*Entity, error) {
	if opts.NotBefore.IsZero() {
		opts.NotBefore = StudyEpoch.AddDate(0, -3, 0)
	}
	if opts.NotAfter.IsZero() {
		opts.NotAfter = StudyEpoch.AddDate(0, 9, 0)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(int64(rng.Intn(1 << 20))),
		Subject:      pkix.Name{CommonName: hostname},
		NotBefore:    opts.NotBefore,
		NotAfter:     opts.NotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     append([]string{hostname}, opts.ExtraDNS...),
	}
	// The create step (sign, self-verify, encode, parse) is interned by TBS
	// content: re-deriving the same world from the same seed reuses the
	// already-issued certificate instead of minting a fresh signature over
	// identical bytes. Key and serial draw were already taken above, so a
	// hit consumes exactly the same rng stream as a miss.
	k := internKey(issueLeaf, a.Cert, tmpl, &key.PublicKey)
	tmpl.SerialNumber = contentSerial(k, tmpl.SerialNumber)
	cert, err := internCertificate(k, func() (*x509.Certificate, error) {
		//pinlint:allow detrandonly ECDSA signing is hedged-randomized by design; signature bytes never reach exported artifacts — pins hash the detrand-derived SPKI
		der, err := x509.CreateCertificate(rand.Reader, tmpl, a.Cert, &key.PublicKey, a.Key)
		if err != nil {
			return nil, fmt.Errorf("pki: issue leaf %q: %w", hostname, err)
		}
		return parseIssued(der, a.Cert)
	})
	if err != nil {
		return nil, err
	}
	return &Entity{Cert: cert, Key: key}, nil
}

// NewSelfSigned creates a self-signed server certificate (no chain). The
// paper found two pinned destinations serving these, with 27- and 10-year
// validities (§5.3.1). Interned by issuance content like every other
// issuer, so a rebuilt world serves the same certificate.
func NewSelfSigned(rng *detrand.Source, hostname string, validYears int) (*Entity, error) {
	key := deterministicKey(rng)
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(int64(rng.Intn(1 << 30))),
		Subject:      pkix.Name{CommonName: hostname},
		NotBefore:    StudyEpoch.AddDate(0, -1, 0),
		NotAfter:     StudyEpoch.AddDate(validYears, 0, 0),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{hostname},
		IsCA:         false,
	}
	cert, err := internCertificate(internKey(issueSelfSigned, nil, tmpl, &key.PublicKey), func() (*x509.Certificate, error) {
		//pinlint:allow detrandonly ECDSA signing is hedged-randomized by design; signature bytes never reach exported artifacts — pins hash the detrand-derived SPKI
		der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
		if err != nil {
			return nil, fmt.Errorf("pki: self-signed %q: %w", hostname, err)
		}
		return parseIssued(der, nil)
	})
	if err != nil {
		return nil, err
	}
	return &Entity{Cert: cert, Key: key}, nil
}

// Chain is an ordered certificate chain, leaf first (as delivered in a TLS
// handshake).
type Chain []*x509.Certificate

// Leaf returns the first certificate or nil.
func (c Chain) Leaf() *x509.Certificate {
	if len(c) == 0 {
		return nil
	}
	return c[0]
}

// Root returns the last certificate or nil.
func (c Chain) Root() *x509.Certificate {
	if len(c) == 0 {
		return nil
	}
	return c[len(c)-1]
}

// ErrEmptyChain is returned when validating a zero-length chain.
var ErrEmptyChain = errors.New("pki: empty certificate chain")

// Validate verifies the chain against store for hostname at time at. The
// last element of the chain is treated as the trust-anchor candidate: it
// must itself be present in (or signed by a member of) the store.
// Per-link signature checks are served from a global content-addressed
// memo (see verify.go); the non-cryptographic checks run every time.
func (c Chain) Validate(store *RootStore, hostname string, at time.Time) error {
	return verifyChain(c, store, hostname, at)
}

// RootStore is a named set of trusted root certificates. It carries a
// validation cache: the study validates the same (chain, hostname, time)
// triples tens of thousands of times across app runs, and x509 chain
// verification costs two ECDSA verifications each.
type RootStore struct {
	Name  string
	certs []*x509.Certificate
	pool  *x509.CertPool

	vmu    sync.RWMutex
	vcache map[string]error
	digest string
	subj   map[string][]*x509.Certificate
}

// NewRootStore returns an empty store with the given name.
func NewRootStore(name string) *RootStore {
	return &RootStore{Name: name}
}

// Add appends a trusted root. It invalidates the cached pool and any
// cached validation results.
func (rs *RootStore) Add(cert *x509.Certificate) {
	rs.vmu.Lock()
	rs.certs = append(rs.certs, cert)
	rs.pool = nil
	rs.vcache = nil
	rs.digest = ""
	rs.subj = nil
	rs.vmu.Unlock()
}

// bySubject returns the trusted roots whose subject matches rawSubject,
// from a lazily built index (invalidated by Add). Safe for concurrent use.
func (rs *RootStore) bySubject(rawSubject []byte) []*x509.Certificate {
	rs.vmu.RLock()
	idx := rs.subj
	rs.vmu.RUnlock()
	if idx == nil {
		rs.vmu.Lock()
		if rs.subj == nil {
			rs.subj = make(map[string][]*x509.Certificate, len(rs.certs))
			for _, c := range rs.certs {
				rs.subj[string(c.RawSubject)] = append(rs.subj[string(c.RawSubject)], c)
			}
		}
		idx = rs.subj
		rs.vmu.Unlock()
	}
	return idx[string(rawSubject)]
}

// Validate verifies chain for hostname at time at against the store,
// caching results. Equivalent to chain.Validate(rs, ...) but safe for
// concurrent use and much cheaper on repeats.
func (rs *RootStore) Validate(chain Chain, hostname string, at time.Time) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	// The verdict depends on every certificate offered, so each one joins
	// the key by its full raw digest.
	b := make([]byte, 0, 1+len(chain)*sha256.Size+len(hostname)+24)
	b = append(b, byte(len(chain)))
	for _, c := range chain {
		sum := RawDigest(c)
		b = append(b, sum[:]...)
	}
	b = append(b, hostname...)
	b = append(b, '|')
	b = strconv.AppendInt(b, at.Unix(), 10)
	k := string(b)

	rs.vmu.RLock()
	err, ok := rs.vcache[k]
	rs.vmu.RUnlock()
	if ok {
		return err
	}
	err = chain.Validate(rs, hostname, at)
	rs.vmu.Lock()
	if rs.vcache == nil {
		rs.vcache = make(map[string]error)
	}
	rs.vcache[k] = err
	rs.vmu.Unlock()
	return err
}

// Certs returns the roots in insertion order.
func (rs *RootStore) Certs() []*x509.Certificate { return rs.certs }

// Len returns the number of trusted roots.
func (rs *RootStore) Len() int { return len(rs.certs) }

// Pool returns (and caches) an x509.CertPool of the roots. Safe for
// concurrent use.
func (rs *RootStore) Pool() *x509.CertPool {
	rs.vmu.Lock()
	defer rs.vmu.Unlock()
	if rs.pool == nil {
		rs.pool = x509.NewCertPool()
		for _, c := range rs.certs {
			rs.pool.AddCert(c)
		}
	}
	return rs.pool
}

// Contains reports whether the store holds a certificate with the same
// raw bytes.
func (rs *RootStore) Contains(cert *x509.Certificate) bool {
	for _, c := range rs.certs {
		if c.Equal(cert) {
			return true
		}
	}
	return false
}

// Clone returns a copy that can be mutated (e.g. to install a MITM CA on a
// test device) without affecting the original. The content digest only
// depends on the trusted roots, so a clone inherits the cached digest:
// per-release stores cloned onto thousands of devices must not re-hash the
// same immutable content on every HandshakeMemo lookup.
func (rs *RootStore) Clone(name string) *RootStore {
	rs.vmu.RLock()
	cp := &RootStore{
		Name:   name,
		certs:  make([]*x509.Certificate, len(rs.certs)),
		digest: rs.digest,
	}
	copy(cp.certs, rs.certs)
	rs.vmu.RUnlock()
	return cp
}

// Digest returns a digest of the store's trusted-root content (not its
// Name), cached until the next Add. Two stores trusting the same roots in
// the same order share a digest, which is what handshake memo keys need:
// the handshake outcome depends on what is trusted, not what the store is
// called. Safe for concurrent use.
func (rs *RootStore) Digest() string {
	rs.vmu.RLock()
	d := rs.digest
	rs.vmu.RUnlock()
	if d != "" {
		return d
	}
	rs.vmu.Lock()
	defer rs.vmu.Unlock()
	if rs.digest == "" {
		h := sha256.New()
		for _, c := range rs.certs {
			sum := RawDigest(c)
			h.Write(sum[:])
		}
		rs.digest = string(h.Sum(nil))
	}
	return rs.digest
}

// --- Pins ---------------------------------------------------------------

// HashAlg identifies the digest used for an SPKI pin.
type HashAlg int

const (
	SHA256 HashAlg = iota
	SHA1
)

func (h HashAlg) String() string {
	if h == SHA1 {
		return "sha1"
	}
	return "sha256"
}

// SPKIDigest hashes the SubjectPublicKeyInfo of cert. Digests are computed
// once per certificate and memoized (see chainstore.go); the returned slice
// is a fresh copy the caller may keep or mutate.
func SPKIDigest(cert *x509.Certificate, alg HashAlg) []byte {
	d := digestsOf(cert)
	if alg == SHA1 {
		return append([]byte(nil), d.spki1[:]...)
	}
	return append([]byte(nil), d.spki256[:]...)
}

// Pin is a single certificate pin as apps embed them: an SPKI digest plus
// its presentation (which algorithm, and whether it was written base64 or
// hex — the paper's regex accepts both, §4.1.2).
type Pin struct {
	Alg    HashAlg
	Digest []byte
	Hex    bool // presentation detail only; matching uses Digest
}

// NewPin pins cert's SubjectPublicKeyInfo with alg.
func NewPin(cert *x509.Certificate, alg HashAlg) Pin {
	return Pin{Alg: alg, Digest: SPKIDigest(cert, alg)}
}

// String renders the pin in the conventional "sha256/<base64>" form, or
// "sha256/<hex>" when the Hex presentation flag is set. This is the exact
// shape the static-analysis regex hunts for.
func (p Pin) String() string {
	if p.Hex {
		return p.Alg.String() + "/" + hex.EncodeToString(p.Digest)
	}
	return p.Alg.String() + "/" + base64.StdEncoding.EncodeToString(p.Digest)
}

// Key returns a canonical comparable representation (algorithm + digest),
// independent of base64/hex presentation.
func (p Pin) Key() string {
	return p.Alg.String() + ":" + hex.EncodeToString(p.Digest)
}

// Matches reports whether cert's SPKI digest equals the pin. It reads the
// memoized digests directly, so a pin check allocates nothing.
func (p Pin) Matches(cert *x509.Certificate) bool {
	md := digestsOf(cert)
	d := md.spki256[:]
	if p.Alg == SHA1 {
		d = md.spki1[:]
	}
	if len(d) != len(p.Digest) {
		return false
	}
	for i := range d {
		if d[i] != p.Digest[i] {
			return false
		}
	}
	return true
}

// ParsePin parses a "sha256/..." or "sha1/..." pin string in base64 or hex
// form. It returns an error for malformed input or wrong digest length.
func ParsePin(s string) (Pin, error) {
	var alg HashAlg
	var rest string
	switch {
	case len(s) > 7 && s[:7] == "sha256/":
		alg, rest = SHA256, s[7:]
	case len(s) > 5 && s[:5] == "sha1/":
		alg, rest = SHA1, s[5:]
	default:
		return Pin{}, fmt.Errorf("pki: unrecognized pin prefix in %q", s)
	}
	want := sha256.Size
	if alg == SHA1 {
		want = sha1.Size
	}
	if d, err := base64.StdEncoding.DecodeString(rest); err == nil && len(d) == want {
		return Pin{Alg: alg, Digest: d}, nil
	}
	if d, err := hex.DecodeString(rest); err == nil && len(d) == want {
		return Pin{Alg: alg, Digest: d, Hex: true}, nil
	}
	return Pin{}, fmt.Errorf("pki: pin %q is neither valid base64 nor hex of the right length", s)
}

// PinSet is the set of pins an app (or one of its SDKs) enforces for a
// destination. A chain satisfies the set if ANY certificate in the chain
// matches ANY pin — the standard OkHttp/NSC semantics.
type PinSet struct {
	Pins []Pin
	// RawCerts holds whole certificates pinned verbatim (rather than by
	// SPKI hash). A chain matches a raw cert if the exact certificate is
	// present, so server-side renewal breaks these (§5.3.3).
	RawCerts []*x509.Certificate
}

// Empty reports whether the set contains no pin material.
func (ps *PinSet) Empty() bool {
	return ps == nil || (len(ps.Pins) == 0 && len(ps.RawCerts) == 0)
}

// DigestKey returns a canonical digest of the set's pin material, for use
// in memo keys. Empty sets (including nil) digest to "".
func (ps *PinSet) DigestKey() string {
	if ps.Empty() {
		return ""
	}
	h := sha256.New()
	for _, p := range ps.Pins {
		h.Write([]byte(p.Alg.String()))
		h.Write(p.Digest)
	}
	for _, rc := range ps.RawCerts {
		sum := RawDigest(rc)
		h.Write(sum[:])
	}
	return string(h.Sum(nil))
}

// MatchChain reports whether any certificate in the chain satisfies any pin.
func (ps *PinSet) MatchChain(chain Chain) bool {
	if ps.Empty() {
		return false
	}
	for _, cert := range chain {
		for _, p := range ps.Pins {
			if p.Matches(cert) {
				return true
			}
		}
		for _, rc := range ps.RawCerts {
			if rc.Equal(cert) {
				return true
			}
		}
	}
	return false
}

// --- Encoding helpers ----------------------------------------------------

// EncodePEM renders cert as a PEM CERTIFICATE block.
func EncodePEM(cert *x509.Certificate) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cert.Raw})
}

// DecodePEM parses the first CERTIFICATE block in data.
func DecodePEM(data []byte) (*x509.Certificate, error) {
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			return nil, errors.New("pki: no CERTIFICATE block found")
		}
		if block.Type == "CERTIFICATE" {
			return x509.ParseCertificate(block.Bytes)
		}
	}
}

// DecodeAllPEM parses every CERTIFICATE block in data.
func DecodeAllPEM(data []byte) []*x509.Certificate {
	var out []*x509.Certificate
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			return out
		}
		if block.Type != "CERTIFICATE" {
			continue
		}
		if c, err := x509.ParseCertificate(block.Bytes); err == nil {
			out = append(out, c)
		}
	}
}
