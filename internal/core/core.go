// Package core implements the paper's primary contribution: the three
// third-party stale-certificate detectors (key-compromise revocation, domain
// registrant change, managed-TLS departure — §4–5), the deduplicated CT
// corpus they join against, and the certificate-lifetime reduction analysis
// (§6).
package core
