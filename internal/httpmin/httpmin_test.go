package httpmin

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/issl"
)

// serveOne runs Serve on one side of a pipe and Get on the other.
func serveOne(t *testing.T, h Handler, method, path string) Response {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(b, h) }()
	resp, err := roundTrip(a, method, path)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	<-done
	return resp
}

func router(req Request) Response {
	switch req.Path {
	case "/":
		return Text(200, "index page\n")
	case "/secret":
		return Text(200, "balance: 1,234,567\n")
	default:
		return NotFound()
	}
}

func TestGetOK(t *testing.T) {
	resp := serveOne(t, router, "GET", "/")
	if resp.Status != 200 || string(resp.Body) != "index page\n" {
		t.Errorf("got %d %q", resp.Status, resp.Body)
	}
	if resp.Headers["Content-Type"] != "text/plain" {
		t.Errorf("content-type = %q", resp.Headers["Content-Type"])
	}
	if resp.Headers["Content-Length"] != "11" {
		t.Errorf("content-length = %q", resp.Headers["Content-Length"])
	}
}

func TestNotFound(t *testing.T) {
	resp := serveOne(t, router, "GET", "/nope")
	if resp.Status != 404 {
		t.Errorf("status = %d", resp.Status)
	}
}

func TestHeadOmitsBody(t *testing.T) {
	resp := serveOne(t, router, "HEAD", "/secret")
	if resp.Status != 200 || len(resp.Body) != 0 {
		t.Errorf("HEAD: %d, %d body bytes", resp.Status, len(resp.Body))
	}
	if resp.Headers["Content-Length"] != "19" {
		t.Errorf("HEAD content-length = %q", resp.Headers["Content-Length"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	a, b := net.Pipe()
	go Serve(b, router)
	resp, err := roundTrip(a, "DELETE", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 405 {
		t.Errorf("status = %d", resp.Status)
	}
}

func TestMalformedRequestGets400(t *testing.T) {
	a, b := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- Serve(b, router) }()
	a.Write([]byte("NOT A VALID REQUEST LINE WITH TOO MANY PARTS HERE\r\n\r\n"))
	got := drainSome(a)
	if !strings.Contains(got, "400") {
		t.Errorf("reply = %q", got)
	}
	if err := <-errCh; err == nil {
		t.Error("Serve returned nil for malformed request")
	}
}

func TestRelativePathRejected(t *testing.T) {
	a, b := net.Pipe()
	go Serve(b, router)
	a.Write([]byte("GET nope HTTP/1.0\r\n\r\n"))
	if got := drainSome(a); !strings.Contains(got, "400") {
		t.Errorf("reply = %q", got)
	}
}

// drainSome reads from the pipe until the peer pauses, so multi-write
// responses (headers then body) fully unblock the server.
func drainSome(a net.Conn) string {
	var out []byte
	buf := make([]byte, 256)
	a.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	for {
		n, err := a.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return string(out)
		}
	}
}

func TestHeadersParsed(t *testing.T) {
	var got Request
	h := func(r Request) Response { got = r; return Text(200, "ok") }
	a, b := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(b, h) }()
	a.Write([]byte("GET /x HTTP/1.0\r\nHost: board\r\nX-Token:  abc \r\n\r\n"))
	drainSome(a)
	<-done
	if got.Headers["Host"] != "board" || got.Headers["X-Token"] != "abc" {
		t.Errorf("headers = %v", got.Headers)
	}
}

// TestOverISSL serves a page through the secure layer — the paper's
// "encrypt web pages" configuration in miniature.
func TestOverISSL(t *testing.T) {
	psk := []byte("web-psk")
	ct, st := net.Pipe()
	done := make(chan error, 1)
	go func() {
		sc, err := issl.BindServer(st, issl.Config{
			Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(2)})
		if err != nil {
			done <- err
			return
		}
		done <- Serve(sc, router)
	}()
	sc, err := issl.BindClient(ct, issl.Config{
		Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Get(sc, "/secret")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "balance: 1,234,567\n" {
		t.Errorf("secure GET: %d %q", resp.Status, resp.Body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDefaultReasons(t *testing.T) {
	for code, want := range map[int]string{200: "OK", 404: "Not Found", 500: "Internal Server Error", 999: "Unknown"} {
		if got := reasonFor(code); got != want {
			t.Errorf("reasonFor(%d) = %q", code, got)
		}
	}
}
