// Package staticanalysis implements the study's static detection pipeline
// (§4.1): decompile/decrypt an app package, search every file for
// certificate material (cert-extension files, PEM delimiters) and SPKI pin
// hashes (the sha(1|256)/<base64-or-hex> regex), parse Android Network
// Security Configurations, extract strings from native binaries, attribute
// findings to third-party SDK code paths, and resolve pins to certificates
// through the CT log.
//
// The pipeline operates on bytes only. Obfuscated or run-time-constructed
// pin material is missed here — by design, that is the gap dynamic
// analysis closes.
package staticanalysis

import (
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"path"
	"regexp"
	"sort"
	"strings"

	"pinscope/internal/appmodel"
	"pinscope/internal/apppkg"
	"pinscope/internal/ctlog"
	"pinscope/internal/pki"
	"pinscope/internal/sdkregistry"
)

// pinRe is the exact expression from §4.1.2; the 28–64 length range covers
// base64 and hex encodings of SHA-1 and SHA-256 digests.
var pinRe = regexp.MustCompile(`sha(1|256)/[a-zA-Z0-9+/=]{28,64}`)

var certExtensions = map[string]bool{
	".der": true, ".pem": true, ".crt": true, ".cert": true, ".cer": true,
}

// FoundCert is an embedded certificate and where it was found.
type FoundCert struct {
	Path string
	Cert *x509.Certificate
}

// FoundPin is an embedded SPKI pin string and where it was found.
type FoundPin struct {
	Path string
	Raw  string
	Pin  pki.Pin
}

// Report is the static-analysis result for one app.
type Report struct {
	AppID    string
	Platform appmodel.Platform

	Certs []FoundCert
	Pins  []FoundPin

	// NSC is the parsed network security configuration (Android only).
	NSC *apppkg.NSC
	// NSCHasPins reports a declared <pin-set> (the prior-work detection
	// criterion used for Table 2/3 comparison).
	NSCHasPins bool

	// AssociatedDomains from iOS entitlements, needed by the dynamic
	// pipeline's background-traffic exclusion (§4.5).
	AssociatedDomains []string

	// Misconfigurations spotted in the NSC (Possemato-style findings).
	Misconfigs []string
}

// HasCertMaterial reports whether any certificate or pin material was
// embedded — the paper's "Embedded Certificates" static criterion.
func (r *Report) HasCertMaterial() bool {
	return len(r.Certs) > 0 || len(r.Pins) > 0
}

// UniquePins returns the distinct pins found, keyed canonically.
func (r *Report) UniquePins() []pki.Pin {
	seen := make(map[string]bool)
	var out []pki.Pin
	for _, fp := range r.Pins {
		k := fp.Pin.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, fp.Pin)
		}
	}
	return out
}

// Analyze runs the full static pipeline on an app. Android packages are
// scanned as produced by Apktool; iOS packages must be decrypted first
// (device.DecryptApp), otherwise an error is returned, mirroring the
// encrypted-IPA obstacle of Appendix A.
func Analyze(app *appmodel.App) (*Report, error) {
	if app.Pkg == nil {
		return nil, fmt.Errorf("staticanalysis: app %s has no package", app.ID)
	}
	if app.Pkg.Encrypted {
		return nil, fmt.Errorf("staticanalysis: package %s is encrypted; decrypt on a jailbroken device first", app.ID)
	}
	r := &Report{AppID: app.ID, Platform: app.Platform}
	scanFiles(app.Pkg, r)
	if app.Platform == appmodel.Android {
		analyzeNSC(app.Pkg, r)
	} else {
		analyzeEntitlements(app.Pkg, r)
	}
	return r, nil
}

// scanFiles performs the byte-level search of §4.1.2 over every file.
func scanFiles(pkg *apppkg.Package, r *Report) {
	// A file lists each distinct certificate once: the key is the path and
	// the DER's digest, which is exact whoever issued the certificate. The
	// digest is taken here rather than through pki.RawDigest, whose memo is
	// keyed by pointer and would keep every certificate decoded from every
	// package alive for the life of the process.
	type certKey struct {
		path string
		raw  [sha256.Size]byte
	}
	seenCert := make(map[certKey]bool)
	addCert := func(p string, c *x509.Certificate) {
		key := certKey{p, sha256.Sum256(c.Raw)}
		if seenCert[key] {
			return
		}
		seenCert[key] = true
		r.Certs = append(r.Certs, FoundCert{Path: p, Cert: c})
	}

	for _, f := range pkg.Files() {
		ext := strings.ToLower(path.Ext(f.Path))

		// 1. Certificate-looking files: PEM first, then raw DER.
		if certExtensions[ext] {
			if certs := pki.DecodeAllPEM(f.Data); len(certs) > 0 {
				for _, c := range certs {
					addCert(f.Path, c)
				}
			} else if c, err := x509.ParseCertificate(f.Data); err == nil {
				addCert(f.Path, c)
			}
		} else {
			// 2. PEM blocks hiding in any other file (JSON configs, code).
			// Decode from each delimiter offset so blocks not at line
			// starts are still recovered.
			data := f.Data
			for {
				i := strings.Index(string(data), "-----BEGIN CERTIFICATE-----")
				if i < 0 {
					break
				}
				certs := pki.DecodeAllPEM(data[i:])
				for _, c := range certs {
					addCert(f.Path, c)
				}
				if len(certs) > 0 {
					break // DecodeAllPEM consumed the rest of the file
				}
				data = data[i+1:]
			}
		}

		// 3. Pin hash strings — in text directly, in binaries via a
		// strings(1)-style pass (the paper used radare2 for native code).
		hay := f.Data
		if f.Executable {
			hay = ExtractStrings(f.Data, 6)
		}
		for _, m := range pinRe.FindAllString(string(hay), -1) {
			pin, err := pki.ParsePin(m)
			if err != nil {
				continue // regex matched but digest length is wrong
			}
			r.Pins = append(r.Pins, FoundPin{Path: f.Path, Raw: m, Pin: pin})
		}
	}
}

// ExtractStrings returns the printable-ASCII runs of length >= min in a
// binary, newline-joined — the strings(1)/radare2 step.
func ExtractStrings(data []byte, min int) []byte {
	var out []byte
	start := -1
	flush := func(end int) {
		if start >= 0 && end-start >= min {
			out = append(out, data[start:end]...)
			out = append(out, '\n')
		}
		start = -1
	}
	for i, b := range data {
		if b >= 0x20 && b <= 0x7e {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(data))
	return out
}

// analyzeNSC locates and parses the Android Network Security Configuration
// (§4.1.1) and flags known misconfigurations.
func analyzeNSC(pkg *apppkg.Package, r *Report) {
	mf := pkg.Get("AndroidManifest.xml")
	if mf == nil {
		return
	}
	_, nscRef, err := apppkg.ParseManifest(mf.Data)
	if err != nil || nscRef == "" {
		return
	}
	resPath := "res/xml/" + strings.TrimPrefix(nscRef, "@xml/") + ".xml"
	nf := pkg.Get(resPath)
	if nf == nil {
		return
	}
	nsc, err := apppkg.ParseNSC(nf.Data)
	if err != nil {
		return
	}
	r.NSC = nsc
	r.NSCHasPins = nsc.HasPins()
	for _, d := range nsc.Domains {
		if len(d.Pins) > 0 && d.OverridePins {
			r.Misconfigs = append(r.Misconfigs,
				fmt.Sprintf("pin-set for %s is bypassed by overridePins=true", d.Domain))
		}
		if d.Domain == "example.com" && len(d.Pins) > 0 {
			r.Misconfigs = append(r.Misconfigs, "pin-set declared for placeholder domain example.com")
		}
	}
	// NSC pins also count as pin material.
	for _, d := range nsc.Domains {
		for _, p := range d.Pins {
			alg := "sha256/"
			if strings.EqualFold(p.Digest, "SHA-1") {
				alg = "sha1/"
			}
			if pin, err := pki.ParsePin(alg + p.Value); err == nil {
				r.Pins = append(r.Pins, FoundPin{Path: resPath, Raw: alg + p.Value, Pin: pin})
			}
		}
	}
}

// analyzeEntitlements extracts iOS associated domains.
func analyzeEntitlements(pkg *apppkg.Package, r *Report) {
	for _, f := range pkg.Files() {
		if !strings.HasSuffix(f.Path, "embedded.mobileprovision") &&
			!strings.HasSuffix(f.Path, "Entitlements.plist") {
			continue
		}
		if ds, err := apppkg.ParseEntitlementsDomains(f.Data); err == nil {
			r.AssociatedDomains = append(r.AssociatedDomains, ds...)
		}
	}
}

// ResolvePins looks up each unique pin in the CT log (§4.1.3) and returns
// the associated certificates plus the fraction of pins that resolved.
func ResolvePins(r *Report, log *ctlog.Log) (resolved map[string][]*x509.Certificate, fraction float64) {
	pins := r.UniquePins()
	resolved = make(map[string][]*x509.Certificate)
	if len(pins) == 0 {
		return resolved, 0
	}
	hit := 0
	for _, p := range pins {
		if certs := log.Lookup(p); len(certs) > 0 {
			resolved[p.Key()] = certs
			hit++
		}
	}
	return resolved, float64(hit) / float64(len(pins))
}

// AttributedFramework is one third-party SDK found to carry certificate
// material, with the number of apps it appeared in (Table 7).
type AttributedFramework struct {
	SDK  sdkregistry.SDK
	Apps int
}

// AttributeFrameworks aggregates cert-material paths across reports and
// attributes them to SDK code paths, counting distinct apps per framework
// (§4.1.4 — the manual review of paths appearing in >minApps apps).
func AttributeFrameworks(reports []*Report, platform appmodel.Platform, minApps int) []AttributedFramework {
	perSDK := make(map[string]map[string]bool) // sdk name -> app set
	for _, r := range reports {
		if r.Platform != platform {
			continue
		}
		paths := make(map[string]bool)
		for _, c := range r.Certs {
			paths[c.Path] = true
		}
		for _, p := range r.Pins {
			paths[p.Path] = true
		}
		for p := range paths {
			if sdk, ok := sdkregistry.AttributePath(platform, p); ok {
				if perSDK[sdk.Name] == nil {
					perSDK[sdk.Name] = make(map[string]bool)
				}
				perSDK[sdk.Name][r.AppID] = true
			}
		}
	}
	var out []AttributedFramework
	for name, apps := range perSDK {
		if len(apps) < minApps {
			continue
		}
		sdk, _ := sdkregistry.ByName(platform, name)
		out = append(out, AttributedFramework{SDK: sdk, Apps: len(apps)})
	}
	// Sort by app count desc, name asc for determinism.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Apps != out[j].Apps {
			return out[i].Apps > out[j].Apps
		}
		return out[i].SDK.Name < out[j].SDK.Name
	})
	return out
}
