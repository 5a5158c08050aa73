package pki

// verify.go is the crypto plane's chain verifier. The study validates tens
// of thousands of chains per run, and the dominant cost inside
// x509.Certificate.Verify is the per-link ECDSA signature check — yet a
// study re-checks the same (parent, child) signature pairs over and over:
// every host's leaf under its issuing CA, every CA under its root, every
// forged leaf under the one proxy CA, across two platforms and every trust
// store. Signatures over identical bytes under identical keys cannot
// change, so verifyChain walks the path itself and routes each link
// through a global content-addressed signature memo (keyed by the signer's
// SPKI digest and the child's raw digest). Everything non-cryptographic —
// validity windows, hostname matching, CA constraints, key usage — is
// re-evaluated on every call; only the signature math is memoized.
//
// The memo is seeded at issuance (parseIssued): x509.CreateCertificate
// already verifies every signature it produces, so a certificate minted in
// this process gets exactly one ECDSA verification, and validating it
// later is a memo hit even in a fresh process. Only certificates minted
// elsewhere (or by a signer whose key the chain does not name) reach
// CheckSignature here.
//
// The walker reproduces the exact x509.Verify semantics this simulation's
// PKI exercises (see TestVerifyChainMatchesX509, which holds the walker to
// x509.Verify's verdict across every chain shape the world generator and
// the proxy produce, plus the mutated failure cases). The simulation never
// uses the x509 features the walker omits: name constraints, policy
// graphs, signature algorithms beyond ECDSA-P256/SHA256, or system roots.

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"sync"
	"sync/atomic"
	"time"
)

// sigMemo caches signature-check outcomes keyed by the signer's SPKI
// digest and the child's raw digest. The key is exact: CheckSignature
// reads nothing of the parent but its public key, and nothing of the child
// but the bytes its digest covers. Keying on the parent's key rather than
// its certificate bytes matters because a CA re-minted with the same key
// (same seed, fresh hedged signature) still vouches for the same children.
// Content-addressed, so entries can never go stale; it grows with the
// number of distinct (key, certificate) pairs seen by the process.
var sigMemo sync.Map // [2*sha256.Size]byte -> error (nil stored as nilError)

// sigChecks counts the signature verifications sigMemo could not answer.
var sigChecks atomic.Int64

// nilError is the sentinel for a cached successful check (sync.Map can
// store nil values, but a typed sentinel keeps the Load site unambiguous).
var nilError = struct{}{}

// SignatureChecks reports how many ECDSA signature verifications chain
// validation has run in this process: the signature memo's misses.
func SignatureChecks() int64 { return sigChecks.Load() }

// sigKey is child's sigMemo key under parent's signing key.
func sigKey(parent, child *x509.Certificate) [2 * sha256.Size]byte {
	var key [2 * sha256.Size]byte
	copy(key[:], digestsOf(parent).spki256[:])
	c := RawDigest(child)
	copy(key[sha256.Size:], c[:])
	return key
}

// parseIssued parses a certificate this process has just minted and seeds
// sigMemo with its signature verdict under parent (nil: self-signed, so
// the certificate's own key signed it). No check is skipped:
// x509.CreateCertificate refuses a private key that does not match
// parent.PublicKey and verifies the signature it produced with that key
// before returning the DER. That verification becomes the only one the
// certificate's signature gets in this process.
func parseIssued(der []byte, parent *x509.Certificate) (*x509.Certificate, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	if parent == nil {
		parent = cert
	}
	sigMemo.Store(sigKey(parent, cert), nilError)
	return cert, nil
}

// checkSigCached verifies that parent's key signed child, memoized.
func checkSigCached(parent, child *x509.Certificate) error {
	key := sigKey(parent, child)
	if v, ok := sigMemo.Load(key); ok {
		if v == nilError {
			return nil
		}
		return v.(error)
	}
	sigChecks.Add(1)
	err := parent.CheckSignature(child.SignatureAlgorithm, child.RawTBSCertificate, child.Signature)
	if err == nil {
		sigMemo.Store(key, nilError)
	} else {
		sigMemo.Store(key, err)
	}
	return err
}

// canSign reports whether parent may act as a CA for child under the
// constraints x509.Verify enforces: a v3 parent must carry valid basic
// constraints with the CA bit, and a parent with a key-usage extension
// must include certificate signing.
func canSign(parent *x509.Certificate) error {
	if parent.Version == 3 && !parent.BasicConstraintsValid ||
		parent.BasicConstraintsValid && !parent.IsCA {
		return x509.ConstraintViolationError{}
	}
	if parent.KeyUsage != 0 && parent.KeyUsage&x509.KeyUsageCertSign == 0 {
		return x509.ConstraintViolationError{}
	}
	return nil
}

// inValidity reports the x509 expiry verdict for c at instant at.
func inValidity(c *x509.Certificate, at time.Time) error {
	if at.Before(c.NotBefore) || at.After(c.NotAfter) {
		return x509.CertificateInvalidError{Cert: c, Reason: x509.Expired}
	}
	return nil
}

// alreadyOnPath mirrors x509's alreadyInChain: a candidate parent with the
// same subject and public key as a cert already on the path is skipped
// (this is what makes a lone self-signed cert fail even when it sits in
// the store).
func alreadyOnPath(candidate *x509.Certificate, path []*x509.Certificate) bool {
	for _, c := range path {
		if bytes.Equal(c.RawSubject, candidate.RawSubject) &&
			bytes.Equal(c.RawSubjectPublicKeyInfo, candidate.RawSubjectPublicKeyInfo) {
			return true
		}
	}
	return false
}

// verifyChain validates chain for hostname at instant at against the
// store's roots, using chain[1:] as the intermediate pool — the same
// inputs Chain.Validate previously handed to x509.Certificate.Verify.
func verifyChain(chain Chain, store *RootStore, hostname string, at time.Time) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	leaf := chain[0]
	if err := inValidity(leaf, at); err != nil {
		return err
	}
	if hostname != "" {
		if err := leaf.VerifyHostname(hostname); err != nil {
			return err
		}
	}
	// Server-auth key usage, as x509.Verify's default KeyUsages enforces
	// along the whole chain: a cert with an EKU list must include
	// ServerAuth or Any; an absent list is unconstrained.
	for _, c := range chain {
		if len(c.ExtKeyUsage) == 0 {
			continue
		}
		ok := false
		for _, u := range c.ExtKeyUsage {
			if u == x509.ExtKeyUsageServerAuth || u == x509.ExtKeyUsageAny {
				ok = true
				break
			}
		}
		if !ok {
			return x509.CertificateInvalidError{Cert: c, Reason: x509.IncompatibleUsage}
		}
	}

	// A leaf that is itself a trust anchor is accepted as a length-one
	// chain with no signature check, mirroring x509.Verify's
	// opts.Roots.contains(c) fast path.
	for _, r := range store.bySubject(leaf.RawSubject) {
		if bytes.Equal(r.Raw, leaf.Raw) {
			return nil
		}
	}

	// Depth-first path walk: at each step try store roots (terminating the
	// path) before chain-supplied intermediates (extending it), exactly as
	// x509 prefers shorter root-anchored chains.
	var walk func(current *x509.Certificate, path []*x509.Certificate) error
	walk = func(current *x509.Certificate, path []*x509.Certificate) error {
		for _, root := range store.bySubject(current.RawIssuer) {
			if alreadyOnPath(root, path) {
				continue
			}
			if canSign(root) != nil || inValidity(root, at) != nil {
				continue
			}
			if checkSigCached(root, current) == nil {
				return nil
			}
		}
		for _, inter := range chain[1:] {
			if !bytes.Equal(inter.RawSubject, current.RawIssuer) || alreadyOnPath(inter, path) {
				continue
			}
			if canSign(inter) != nil || inValidity(inter, at) != nil {
				continue
			}
			// Intermediates must themselves be CA certificates (x509's
			// intermediate isValid check).
			if !(inter.BasicConstraintsValid && inter.IsCA) {
				continue
			}
			if checkSigCached(inter, current) != nil {
				continue
			}
			if err := walk(inter, append(path, inter)); err == nil {
				return nil
			}
		}
		return x509.UnknownAuthorityError{Cert: current}
	}
	return walk(leaf, Chain{leaf})
}
