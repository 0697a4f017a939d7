package tcpip

// Peek/Discard coverage: the zero-copy receive API the issl record
// layer rides on. The contract under test — a Peek view stays valid
// (the buffer is pinned, arrivals divert) until the next Peek or
// Discard; Discard consumes; views may be mutated in place; EOF
// conventions follow io.ReadFull.

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// peekPair builds two connected TCBs over a quiet hub.
func peekPair(t *testing.T) (client, server *TCB) {
	t.Helper()
	_, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := make(chan *TCB, 1)
	go func() {
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			acc <- nil
			return
		}
		acc <- conn
	}()
	client, err = stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	server = <-acc
	if server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

func dl() time.Time { return time.Now().Add(2 * time.Second) }

func TestPeekWaitsForEnoughBytes(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	go func() {
		client.Write([]byte("he"))
		time.Sleep(20 * time.Millisecond)
		client.Write([]byte("llo!"))
	}()
	// Peek(6) must block across the two writes and return them joined.
	view, err := server.Peek(6, dl())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view[:6], []byte("hello!")) {
		t.Fatalf("view = %q", view)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	client.Write([]byte("abcdef"))
	if _, err := server.Peek(6, dl()); err != nil {
		t.Fatal(err)
	}
	// A second Peek sees the same bytes; Discard then Read sees the rest.
	view, err := server.Peek(6, dl())
	if err != nil {
		t.Fatal(err)
	}
	if string(view[:6]) != "abcdef" {
		t.Fatalf("second peek = %q", view)
	}
	server.Discard(2)
	buf := make([]byte, 16)
	n, err := server.ReadDeadline(buf, dl())
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "cdef" {
		t.Fatalf("read after discard = %q", buf[:n])
	}
}

func TestPeekViewSurvivesConcurrentArrivals(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	client.Write([]byte("pinned"))
	view, err := server.Peek(6, dl())
	if err != nil {
		t.Fatal(err)
	}
	view = view[:6]
	// While the view is live, pour in enough data to force the receive
	// buffer to grow — were it not pinned, append could move the
	// backing array out from under the view (and race with it).
	big := bytes.Repeat([]byte("x"), 8192)
	go client.Write(big)
	deadline := time.Now().Add(2 * time.Second)
	for server.Avail() < 6+len(big) {
		if time.Now().After(deadline) {
			t.Fatal("arrivals never landed")
		}
		if string(view) != "pinned" {
			t.Fatalf("live view corrupted by concurrent arrivals: %q", view)
		}
		time.Sleep(time.Millisecond)
	}
	server.Discard(6)
	got := 0
	buf := make([]byte, 1024)
	for got < len(big) {
		n, err := server.ReadDeadline(buf, dl())
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	if got != len(big) {
		t.Fatalf("diverted bytes lost: got %d want %d", got, len(big))
	}
}

func TestPeekViewMutableInPlace(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	client.Write([]byte("SECRET"))
	view, err := server.Peek(6, dl())
	if err != nil {
		t.Fatal(err)
	}
	// The issl record layer decrypts in place inside this view; model
	// that with a byte-wise transform, then confirm the transformed
	// bytes are what a re-Peek observes.
	for i := 0; i < 6; i++ {
		view[i] |= 0x20
	}
	view2, err := server.Peek(6, dl())
	if err != nil {
		t.Fatal(err)
	}
	if string(view2[:6]) != "secret" {
		t.Fatalf("in-place mutation lost: %q", view2[:6])
	}
}

func TestPeekEOFConventions(t *testing.T) {
	client, server := peekPair(t)
	defer server.Close()
	client.Write([]byte("abc"))
	client.Close()
	// Partial data then close: io.ErrUnexpectedEOF (io.ReadFull rules).
	if _, err := server.Peek(10, dl()); err != io.ErrUnexpectedEOF {
		t.Fatalf("short peek on closed conn: err = %v, want ErrUnexpectedEOF", err)
	}
	// The 3 bytes are still there for a satisfiable Peek.
	view, err := server.Peek(3, dl())
	if err != nil {
		t.Fatal(err)
	}
	if string(view[:3]) != "abc" {
		t.Fatalf("view = %q", view)
	}
	server.Discard(3)
	// Empty and closed: clean io.EOF.
	if _, err := server.Peek(1, dl()); err != io.EOF {
		t.Fatalf("peek on drained closed conn: err = %v, want EOF", err)
	}
}

func TestPeekDeadlineExpires(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	start := time.Now()
	_, err := server.Peek(1, time.Now().Add(50*time.Millisecond))
	if err == nil {
		t.Fatal("peek with no data returned a view")
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("deadline expiry mislabeled as EOF: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("deadline ignored: waited %v", time.Since(start))
	}
}

// TestDeadlineWaitersShareOneTimer: deadline waits on one TCB share its
// one wake timer. A short wait that starts after a long one must still
// expire on time (the timer moves earlier), the long one must expire
// after it (the timer is re-armed), a later wait must reuse the timer,
// and a wait that data ends early must not leave the timer armed.
func TestDeadlineWaitersShareOneTimer(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	type result struct {
		took time.Duration
		err  error
	}
	read := func(d time.Duration) <-chan result {
		out := make(chan result, 1)
		go func() {
			start := time.Now()
			buf := make([]byte, 1)
			_, err := server.ReadDeadline(buf, start.Add(d))
			out <- result{time.Since(start), err}
		}()
		return out
	}
	wait := func(what string, ch <-chan result) result {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(3 * time.Second):
			t.Fatalf("%s never woke", what)
			return result{}
		}
	}
	long := read(500 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	short := read(50 * time.Millisecond)
	if r := wait("50 ms wait", short); r.err != ErrTimeout || r.took > 400*time.Millisecond {
		t.Errorf("50 ms wait behind a 500 ms one: %v after %v, want ErrTimeout on time", r.err, r.took)
	}
	if r := wait("500 ms wait", long); r.err != ErrTimeout || r.took < 500*time.Millisecond {
		t.Errorf("500 ms wait: %v after %v, want ErrTimeout after its deadline", r.err, r.took)
	}
	if r := wait("wait after the timer fired", read(50*time.Millisecond)); r.err != ErrTimeout {
		t.Errorf("wait after the timer fired: err = %v, want ErrTimeout", r.err)
	}
	early := read(time.Minute)
	time.Sleep(20 * time.Millisecond)
	client.Write([]byte("x"))
	if r := wait("read ended by data", early); r.err != nil {
		t.Fatalf("read ended by data: %v", r.err)
	}
	server.mu.Lock()
	defer server.mu.Unlock()
	if server.timedWaiters != 0 || !server.wakeAt.IsZero() {
		t.Errorf("after the waits: %d timed waiters, wake timer armed for %v; want 0, none",
			server.timedWaiters, server.wakeAt)
	}
}

func TestDiscardClampsToAvailable(t *testing.T) {
	client, server := peekPair(t)
	defer client.Close()
	defer server.Close()
	client.Write([]byte("xy"))
	if _, err := server.Peek(2, dl()); err != nil {
		t.Fatal(err)
	}
	server.Discard(100) // over-discard clamps, doesn't corrupt
	go client.Write([]byte("after"))
	view, err := server.Peek(5, dl())
	if err != nil {
		t.Fatal(err)
	}
	if string(view[:5]) != "after" {
		t.Fatalf("view after over-discard = %q", view[:5])
	}
}
