package pki

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"fmt"
	"testing"
	"time"

	"pinscope/internal/detrand"
)

// x509Verify is the reference implementation verifyChain replaced: the
// exact call Chain.Validate used to make.
func x509Verify(c Chain, store *RootStore, hostname string, at time.Time) error {
	if len(c) == 0 {
		return ErrEmptyChain
	}
	inters := x509.NewCertPool()
	for _, ic := range c[1:] {
		inters.AddCert(ic)
	}
	_, err := c[0].Verify(x509.VerifyOptions{
		DNSName:       hostname,
		Roots:         store.Pool(),
		Intermediates: inters,
		CurrentTime:   at,
	})
	return err
}

// agree fails the test unless the walker and x509.Verify reach the same
// valid/invalid verdict for the case.
func agree(t *testing.T, label string, c Chain, store *RootStore, hostname string, at time.Time) {
	t.Helper()
	got := verifyChain(c, store, hostname, at)
	want := x509Verify(c, store, hostname, at)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: walker says %v, x509.Verify says %v", label, got, want)
	}
}

func TestVerifyChainMatchesX509(t *testing.T) {
	rng := detrand.New(77)
	root, err := NewRootCA(rng.Child("root"), "Test Root", "TestOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng.Child("inter"), "Test Intermediate", 5)
	if err != nil {
		t.Fatal(err)
	}
	otherRoot, err := NewRootCA(rng.Child("other"), "Other Root", "OtherOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng.Child("leaf"), "api.example.com", LeafOptions{ExtraDNS: []string{"*.alt.example.com"}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := root.IssueLeaf(rng.Child("direct"), "direct.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expired, err := inter.IssueLeaf(rng.Child("expired"), "old.example.com", LeafOptions{
		NotBefore: StudyEpoch.AddDate(-2, 0, 0), NotAfter: StudyEpoch.AddDate(-1, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	selfSigned, err := NewSelfSigned(rng.Child("self"), "self.example.com", 27)
	if err != nil {
		t.Fatal(err)
	}

	store := NewRootStore("test")
	store.Add(root.Cert)
	withSelf := store.Clone("with-self")
	withSelf.Add(selfSigned.Cert)
	otherStore := NewRootStore("other")
	otherStore.Add(otherRoot.Cert)
	empty := NewRootStore("empty")

	// Re-minted parents: the intermediate's key and fields under a fresh
	// signature, once from the same root and once from another. The
	// signature memo is keyed on the signer's key, so the leaf link hits
	// the entry "full chain" warmed; the verdicts must still be x509's.
	reminted := remint(t, inter.Cert, root, nil)
	remintedByOther := remint(t, inter.Cert, otherRoot, nil)

	future := StudyEpoch.AddDate(3, 0, 0)
	cases := []struct {
		label string
		chain Chain
		store *RootStore
		host  string
		at    time.Time
	}{
		{"full chain", Chain{leaf.Cert, inter.Cert}, store, "api.example.com", StudyEpoch},
		{"re-minted intermediate", Chain{leaf.Cert, reminted}, store, "api.example.com", StudyEpoch},
		{"re-minted under another root", Chain{leaf.Cert, remintedByOther}, store, "api.example.com", StudyEpoch},
		{"re-minted under another root, trusted", Chain{leaf.Cert, remintedByOther}, otherStore, "api.example.com", StudyEpoch},
		{"chain with root included", Chain{leaf.Cert, inter.Cert, root.Cert}, store, "api.example.com", StudyEpoch},
		{"wildcard SAN", Chain{leaf.Cert, inter.Cert}, store, "x.alt.example.com", StudyEpoch},
		{"direct-under-root leaf", Chain{direct.Cert}, store, "direct.example.com", StudyEpoch},
		{"hostname mismatch", Chain{leaf.Cert, inter.Cert}, store, "evil.example.org", StudyEpoch},
		{"missing intermediate", Chain{leaf.Cert}, store, "api.example.com", StudyEpoch},
		{"untrusting store", Chain{leaf.Cert, inter.Cert}, otherStore, "api.example.com", StudyEpoch},
		{"empty store", Chain{leaf.Cert, inter.Cert}, empty, "api.example.com", StudyEpoch},
		{"expired leaf", Chain{expired.Cert, inter.Cert}, store, "old.example.com", StudyEpoch},
		{"leaf after validity", Chain{leaf.Cert, inter.Cert}, store, "api.example.com", future},
		{"standalone self-signed", Chain{selfSigned.Cert}, store, "self.example.com", StudyEpoch},
		{"self-signed in store", Chain{selfSigned.Cert}, withSelf, "self.example.com", StudyEpoch},
		{"leaf as trust anchor", Chain{leaf.Cert, inter.Cert}, func() *RootStore {
			s := NewRootStore("leaf-anchored")
			s.Add(inter.Cert)
			return s
		}(), "api.example.com", StudyEpoch},
		{"out-of-order extras", Chain{leaf.Cert, otherRoot.Cert, inter.Cert}, store, "api.example.com", StudyEpoch},
		{"wrong leaf first", Chain{inter.Cert, leaf.Cert}, store, "api.example.com", StudyEpoch},
	}
	for _, tc := range cases {
		agree(t, tc.label, tc.chain, tc.store, tc.host, tc.at)
	}
}

// remint re-signs cert's fields and key under parent, bypassing the
// issuance intern: the result has cert's SubjectPublicKeyInfo but fresh
// signature bytes. mutate, when non-nil, edits the template first.
func remint(t *testing.T, cert *x509.Certificate, parent *Authority, mutate func(*x509.Certificate)) *x509.Certificate {
	t.Helper()
	tmpl := *cert
	if mutate != nil {
		mutate(&tmpl)
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, parent.Cert, cert.PublicKey, parent.Key)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Raw, cert.Raw) || !bytes.Equal(out.RawSubjectPublicKeyInfo, cert.RawSubjectPublicKeyInfo) {
		t.Fatal("remint did not produce new bytes over the same key")
	}
	return out
}

func TestVerifyChainMatchesX509OverGeneratedPKI(t *testing.T) {
	// Sweep many generated (CA, host) shapes — including a forged-MITM
	// shape (leaf under a foreign CA) — and hold the walker to the
	// reference verdict under the trusting store, a non-trusting store,
	// and a wrong hostname.
	rng := detrand.New(99)
	mitmCA, err := NewRootCA(rng.Child("mitm"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		t.Fatal(err)
	}
	mitmStore := NewRootStore("mitm-trusting")
	mitmStore.Add(mitmCA.Cert)

	for i := 0; i < 12; i++ {
		caRng := rng.Child(fmt.Sprintf("ca/%d", i))
		root, err := NewRootCA(caRng.Child("root"), fmt.Sprintf("CA %d", i), "Org", 10)
		if err != nil {
			t.Fatal(err)
		}
		host := fmt.Sprintf("h%d.example.com", i)
		var issuer *Authority = root
		chainTail := Chain{}
		if i%2 == 1 {
			inter, err := root.NewIntermediate(caRng.Child("i"), fmt.Sprintf("Inter %d", i), 5)
			if err != nil {
				t.Fatal(err)
			}
			issuer, chainTail = inter, Chain{inter.Cert}
		}
		leaf, err := issuer.IssueLeaf(caRng.Child("leaf"), host, LeafOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chain := append(Chain{leaf.Cert}, chainTail...)

		trusting := NewRootStore("trusting")
		trusting.Add(root.Cert)
		agree(t, host+"/trusting", chain, trusting, host, StudyEpoch)
		agree(t, host+"/mitm-store", chain, mitmStore, host, StudyEpoch)
		agree(t, host+"/wrong-host", chain, trusting, "nope.example.net", StudyEpoch)

		forged, err := mitmCA.IssueLeaf(caRng.Child("forge"), host, LeafOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fchain := Chain{forged.Cert, mitmCA.Cert}
		agree(t, host+"/forged-trusted", fchain, mitmStore, host, StudyEpoch)
		agree(t, host+"/forged-untrusted", fchain, trusting, host, StudyEpoch)
	}
}

func TestSignatureMemoDetectsRogueIssuer(t *testing.T) {
	// The memo is keyed by the signer's key and the child's bytes, so a
	// leaf signed by a rogue CA that merely copies the genuine root's
	// subject name must miss the cache, run the real signature check
	// against the genuine key, and fail — even after the genuine leaf
	// validated and warmed the memo.
	rng := detrand.New(101)
	root, err := NewRootCA(rng.Child("root"), "Memo Root", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf(rng.Child("leaf"), "memo.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewRootStore("memo")
	store.Add(root.Cert)
	if err := (Chain{leaf.Cert}).Validate(store, "memo.example.com", StudyEpoch); err != nil {
		t.Fatalf("genuine chain rejected: %v", err)
	}

	rogue, err := NewRootCA(rng.Child("rogue"), "Memo Root", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rogue.Cert.RawSubject, root.Cert.RawSubject) {
		t.Fatal("rogue CA subject does not mirror the genuine root")
	}
	forged, err := rogue.IssueLeaf(rng.Child("forged"), "memo.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := (Chain{forged.Cert}).Validate(store, "memo.example.com", StudyEpoch); err == nil {
		t.Fatal("rogue-signed certificate validated against the genuine root")
	}
	agree(t, "rogue issuer", Chain{forged.Cert}, store, "memo.example.com", StudyEpoch)
}

func TestValidateCacheTellsIntermediatesApart(t *testing.T) {
	// Two intermediates with the same subject and key, one valid and one
	// expired, vouch for the same leaf. RootStore.Validate caches verdicts,
	// so its key must tell the chains apart: whichever validates first,
	// each verdict must be x509's.
	rng := detrand.New(103)
	root, err := NewRootCA(rng.Child("root"), "Cache Root", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng.Child("inter"), "Cache Inter", 5)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng.Child("leaf"), "cache.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expired := remint(t, inter.Cert, root, func(c *x509.Certificate) {
		c.NotBefore = StudyEpoch.AddDate(-3, 0, 0)
		c.NotAfter = StudyEpoch.AddDate(-1, 0, 0)
	})
	good, bad := Chain{leaf.Cert, inter.Cert}, Chain{leaf.Cert, expired}
	for _, order := range [][]Chain{{good, bad}, {bad, good}} {
		store := NewRootStore("cache")
		store.Add(root.Cert)
		for _, c := range order {
			got := store.Validate(c, "cache.example.com", StudyEpoch)
			want := x509Verify(c, store, "cache.example.com", StudyEpoch)
			if (got == nil) != (want == nil) {
				t.Fatalf("chain via intermediate valid until %s: Validate says %v, x509.Verify says %v",
					c[1].NotAfter.Format("2006-01-02"), got, want)
			}
		}
	}
}

func TestCAIssuanceInterned(t *testing.T) {
	// Re-deriving a CA from the same rng stream returns the certificate
	// already issued, Raw bytes included, for roots and intermediates; so
	// does re-deriving a self-signed server certificate, whose chain would
	// otherwise miss RootStore.Validate's verdict cache on every rebuild.
	derive := func() (*Authority, *Authority, *Entity) {
		rng := detrand.New(107)
		root, err := NewRootCA(rng.Child("root"), "Intern Root", "Org", 10)
		if err != nil {
			t.Fatal(err)
		}
		inter, err := root.NewIntermediate(rng.Child("inter"), "Intern Inter", 5)
		if err != nil {
			t.Fatal(err)
		}
		self, err := NewSelfSigned(rng.Child("self"), "intern.example.com", 10)
		if err != nil {
			t.Fatal(err)
		}
		return root, inter, self
	}
	r1, i1, s1 := derive()
	r2, i2, s2 := derive()
	if !bytes.Equal(r1.Cert.Raw, r2.Cert.Raw) {
		t.Fatal("re-derived root was minted afresh")
	}
	if !bytes.Equal(i1.Cert.Raw, i2.Cert.Raw) {
		t.Fatal("re-derived intermediate was minted afresh")
	}
	if !bytes.Equal(s1.Cert.Raw, s2.Cert.Raw) {
		t.Fatal("re-derived self-signed certificate was minted afresh")
	}
	other, err := NewRootCA(detrand.New(107).Child("root"), "Intern Root 2", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other.Cert.Raw, r1.Cert.Raw) {
		t.Fatal("a root with a different name hit the intern")
	}
}

func TestIssuanceSeedsSignatureMemo(t *testing.T) {
	// Every issuer path seeds the signature memo with the verdict
	// x509.CreateCertificate established while minting. The seeded verdict
	// must be the one parent.CheckSignature reaches on its own, and chain
	// validation must then run no signature check of its own.
	rng := detrand.New(109)
	root, err := NewRootCA(rng.Child("root"), "Seed Root", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng.Child("inter"), "Seed Inter", 5)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng.Child("leaf"), "seed.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reissued, err := inter.ReissueLeaf(rng.Child("reissue"), leaf, LeafOptions{NotAfter: StudyEpoch.AddDate(1, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	proxyCA, err := NewRootCA(rng.Child("proxy"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := proxyCA.IssueLeaf(rng.Child("forge"), "seed.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	self, err := NewSelfSigned(rng.Child("self"), "self.seed.example.com", 27)
	if err != nil {
		t.Fatal(err)
	}
	eco, err := BuildEcosystem(rng.Child("eco"))
	if err != nil {
		t.Fatal(err)
	}
	public, _, err := eco.IssuePublicChain(rng.Child("public"), "public.seed.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	custom, customInter, err := eco.NewCustomPKI(rng.Child("custom"), "Seed Org")
	if err != nil {
		t.Fatal(err)
	}

	links := []struct {
		name          string
		parent, child *x509.Certificate
	}{
		{"root", root.Cert, root.Cert},
		{"intermediate", root.Cert, inter.Cert},
		{"leaf", inter.Cert, leaf.Cert},
		{"reissued leaf", inter.Cert, reissued.Cert},
		{"proxy root", proxyCA.Cert, proxyCA.Cert},
		{"forged leaf", proxyCA.Cert, forged.Cert},
		{"self-signed", self.Cert, self.Cert},
		{"public leaf", public[1], public[0]},
		{"public intermediate", public[2], public[1]},
		{"custom intermediate", custom.Cert, customInter.Cert},
	}
	for _, l := range links {
		v, ok := sigMemo.Load(sigKey(l.parent, l.child))
		if !ok {
			t.Fatalf("%s: issuance left no signature verdict", l.name)
		}
		want := l.parent.CheckSignature(l.child.SignatureAlgorithm, l.child.RawTBSCertificate, l.child.Signature)
		if (v == nilError) != (want == nil) {
			t.Fatalf("%s: seeded verdict %v, CheckSignature says %v", l.name, v, want)
		}
	}
	// Only the real issuer's verdict is seeded: the same child under
	// another key is a miss that the real check rejects.
	if _, ok := sigMemo.Load(sigKey(proxyCA.Cert, leaf.Cert)); ok {
		t.Fatal("a verdict was seeded for a key that did not sign the certificate")
	}

	store := NewRootStore("seed")
	store.Add(root.Cert)
	store.Add(proxyCA.Cert)
	before := SignatureChecks()
	for _, c := range []Chain{{leaf.Cert, inter.Cert}, {reissued.Cert, inter.Cert}, {forged.Cert, proxyCA.Cert}} {
		if err := c.Validate(store, "seed.example.com", StudyEpoch); err != nil {
			t.Fatalf("chain for %s rejected: %v", c.Leaf().Subject.CommonName, err)
		}
	}
	if err := public.Validate(eco.Mozilla, "public.seed.example.com", StudyEpoch); err != nil {
		t.Fatalf("public chain rejected: %v", err)
	}
	if n := SignatureChecks() - before; n != 0 {
		t.Fatalf("validating freshly issued chains ran %d signature checks, want 0", n)
	}
}
