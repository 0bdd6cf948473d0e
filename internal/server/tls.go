package server

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"time"

	"groupkey/internal/wire"
)

// The registration exchange carries each member's individual key, so it
// needs a confidential channel. This file provides the self-contained TLS
// deployment: the server mints a self-signed certificate at startup and
// clients pin it (certificate-pinning beats a CA hierarchy for a
// single-operator key server).

// GenerateTLSCert mints a fresh self-signed ECDSA P-256 certificate for
// the key server, valid for loopback and "localhost". rng nil means
// crypto/rand.
func GenerateTLSCert(rng io.Reader) (tls.Certificate, *x509.Certificate, error) {
	if rng == nil {
		rng = rand.Reader
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return tls.Certificate{}, nil, fmt.Errorf("server: generating TLS key: %w", err)
	}
	template := &x509.Certificate{
		SerialNumber:          big.NewInt(time.Now().UnixNano()),
		Subject:               pkix.Name{CommonName: "groupkey key server"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
		DNSNames:              []string{"localhost"},
		IsCA:                  true, // self-signed leaf doubling as its own root for pinning
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rng, template, template, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, nil, fmt.Errorf("server: creating certificate: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, leaf, nil
}

// ServeTLS starts accepting TLS connections on ln using the given
// certificate. The wire protocol on top is unchanged.
func (s *Server) ServeTLS(ln net.Listener, cert tls.Certificate) {
	s.Serve(tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS13,
	}))
}

// DialTLS joins a key server over TLS, pinning the server to the given
// certificate pool (typically containing exactly the server's self-signed
// certificate, obtained out of band).
func DialTLS(addr string, req wire.JoinRequest, timeout time.Duration, pool *x509.CertPool) (*Client, error) {
	return DialTLSGroup(addr, 0, req, timeout, pool)
}

// DialTLSGroup is DialTLS addressed at a hosted group. Cluster redirects
// are followed transparently; every hop is dialed with the same pinned
// certificate pool.
func DialTLSGroup(addr string, group wire.GroupID, req wire.JoinRequest, timeout time.Duration, pool *x509.CertPool) (*Client, error) {
	return followRedirectsVia(addr, nil, func(addr string) (*Client, error) {
		conn, err := dialTLS(addr, timeout, pool)
		if err != nil {
			return nil, err
		}
		return newClientOnConn(conn, group, req, timeout)
	})
}

// dialTLS connects to addr over TLS 1.3, pinning the server to pool.
func dialTLS(addr string, timeout time.Duration, pool *x509.CertPool) (net.Conn, error) {
	dialer := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(dialer, "tcp", addr, &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS13})
	if err != nil {
		return nil, fmt.Errorf("server: TLS dial %s: %w", addr, err)
	}
	return conn, nil
}
