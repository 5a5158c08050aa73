package pki

// chainstore.go is the interning layer of the shared crypto plane. A study
// issues the same certificate material over and over: every worker's MITM
// proxy forges a leaf for the same hosts, and every pin check and chain
// validation hashes the same DER bytes. Two caches collapse that work:
//
//   - ChainStore interns issued chains content-addressed by caller-chosen
//     key (authority digest + hostname + leaf options). Each key's chain is
//     issued exactly once per store, no matter how many workers race on it.
//   - a package-level digest memo precomputes, per *x509.Certificate, the
//     SPKI SHA-256/SHA-1 and whole-cert SHA-256 digests, so sha256.Sum256
//     never runs twice over the same DER.
//
// Both caches hold immutable values, so sharing them across workers cannot
// perturb results; the equivalence test in internal/core proves a plane-
// backed run exports byte-identical data to a cold one.

import (
	"crypto/ecdsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"sync"
)

// ChainStore is a content-addressed intern table for issued chains. The
// zero value is NOT ready; use NewChainStore. Safe for concurrent use:
// concurrent GetOrIssue calls for the same key run the issue function
// exactly once and all receive the same interned chain.
type ChainStore struct {
	m sync.Map // key string -> *chainEntry
}

type chainEntry struct {
	once  sync.Once
	chain Chain
	err   error
}

// NewChainStore returns an empty store.
func NewChainStore() *ChainStore { return &ChainStore{} }

// GetOrIssue returns the chain interned under key, calling issue to build
// it on first use. issue runs at most once per key for the store's
// lifetime; a returned error is interned too (the issuance is assumed
// deterministic, so retrying could only repeat it).
func (s *ChainStore) GetOrIssue(key string, issue func() (Chain, error)) (Chain, error) {
	v, _ := s.m.LoadOrStore(key, &chainEntry{})
	e := v.(*chainEntry)
	e.once.Do(func() {
		e.chain, e.err = issue()
	})
	return e.chain, e.err
}

// Len reports how many keys have been interned (including pending ones).
func (s *ChainStore) Len() int {
	n := 0
	s.m.Range(func(any, any) bool { n++; return true })
	return n
}

// --- Per-certificate digest memo -----------------------------------------

// certDigests holds every digest the study ever takes of one certificate.
type certDigests struct {
	spki256 [sha256.Size]byte
	spki1   [sha1.Size]byte
	raw256  [sha256.Size]byte
}

// digestMemo maps *x509.Certificate to its *certDigests. Keying by pointer
// is sound here: the simulation parses each certificate exactly once (at
// issuance or PEM decode) and passes the same pointer everywhere after.
// Distinct pointers with equal DER merely compute the digests once each.
var digestMemo sync.Map

func digestsOf(cert *x509.Certificate) *certDigests {
	if v, ok := digestMemo.Load(cert); ok {
		return v.(*certDigests)
	}
	d := &certDigests{
		spki256: sha256.Sum256(cert.RawSubjectPublicKeyInfo),
		spki1:   sha1.Sum(cert.RawSubjectPublicKeyInfo),
		raw256:  sha256.Sum256(cert.Raw),
	}
	v, _ := digestMemo.LoadOrStore(cert, d)
	return v.(*certDigests)
}

// RawDigest returns the memoized SHA-256 of cert.Raw.
func RawDigest(cert *x509.Certificate) [sha256.Size]byte {
	return digestsOf(cert).raw256
}

// --- Issuance intern table -------------------------------------------------

// certIntern caches parsed certificates keyed by the full TBS content of
// their issuance. A process that runs the same study twice re-derives
// identical keys and serials from the seed, so every x509.CreateCertificate
// call after the first would sign, self-verify, encode and re-parse a
// certificate that differs only in its (unobservable) hedged signature
// bytes. The intern hit skips all of that and hands back the certificate
// already issued, Raw bytes included — so a re-derived CA is the same
// certificate, and every memo keyed on it keeps hitting.
var certIntern sync.Map // string -> *x509.Certificate

// Issuance kinds. The kind fixes every template field the key leaves out
// (key usages, extended key usages, the CA bit).
const (
	issueRoot         = 'R'
	issueIntermediate = 'I'
	issueLeaf         = 'L'
)

// internKey builds the content key for one issuance: the kind, the
// issuer's key and name (nil issuer: self-signed, so the subject and
// subject key below name the issuer too), and every template field the
// pki issuers vary — serial, validity, subject, SANs — plus the subject
// key. Variable-length fields are length-prefixed.
func internKey(kind byte, issuer, tmpl *x509.Certificate, pub *ecdsa.PublicKey) string {
	b := make([]byte, 0, 256)
	b = append(b, kind)
	if issuer != nil {
		b = append(b, digestsOf(issuer).spki256[:]...)
		b = appendField(b, issuer.RawSubject)
	}
	b = appendField(b, tmpl.SerialNumber.Bytes())
	b = binary.AppendVarint(b, tmpl.NotBefore.Unix())
	b = binary.AppendVarint(b, tmpl.NotAfter.Unix())
	b = appendField(b, []byte(tmpl.Subject.CommonName))
	b = appendFields(b, tmpl.Subject.Organization)
	b = appendFields(b, tmpl.DNSNames)
	b = appendField(b, pub.X.Bytes())
	b = appendField(b, pub.Y.Bytes())
	return string(b)
}

func appendField(b, field []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(field)))
	return append(b, field...)
}

func appendFields(b []byte, fields []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(fields)))
	for _, f := range fields {
		b = appendField(b, []byte(f))
	}
	return b
}

// internCertificate returns the certificate interned under key, calling
// create (the actual x509.CreateCertificate + ParseCertificate) on first
// use. Errors are not interned: they are deterministic, so a retry merely
// repeats them.
func internCertificate(key string, create func() (*x509.Certificate, error)) (*x509.Certificate, error) {
	if v, ok := certIntern.Load(key); ok {
		return v.(*x509.Certificate), nil
	}
	cert, err := create()
	if err != nil {
		return nil, err
	}
	v, _ := certIntern.LoadOrStore(key, cert)
	return v.(*x509.Certificate), nil
}
