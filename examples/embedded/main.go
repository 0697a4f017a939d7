// Embedded example: the ported service with the paper's Fig. 3
// structure — three costatement-driven connection slots plus a TCP
// driver, AES-128-only issl with a pre-shared key instead of RSA.
// Three clients occupy all slots; a fourth is refused until one slot
// frees up, demonstrating the hard concurrency limit the port
// introduced.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/dcsock"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/redirector"
	"repro/internal/tcpip"
)

func main() {
	hub := netsim.NewHub()
	defer hub.Close()
	newHost := func(last byte) *tcpip.Stack {
		s, err := tcpip.NewStack(hub, tcpip.IP4(10, 2, 0, last))
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	workstation := newHost(1)
	defer workstation.Close()
	board := newHost(2) // the RMC2000
	defer board.Close()
	backend := newHost(3)
	defer backend.Close()

	// Backend echo.
	echoL, err := backend.Listen(8000, 8)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			conn, err := echoL.Accept(10 * time.Second)
			if err != nil {
				return
			}
			go func(c *tcpip.TCB) {
				buf := make([]byte, 1024)
				for {
					n, err := c.ReadDeadline(buf, time.Now().Add(10*time.Second))
					if n > 0 {
						c.Write(buf[:n])
					}
					if err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	psk := []byte("board-psk-no-rsa-on-8-bits")
	// The server runs three connection slots (Fig. 3: "at most three
	// requests").
	srv, err := redirector.NewEmbeddedServer(dcsock.NewEnv(board), redirector.Config{
		ListenPort: 443,
		Target:     backend.Addr(),
		TargetPort: 8000,
		Secure:     true,
		PSK:        psk,
		RandSeed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()
	time.Sleep(50 * time.Millisecond)

	dial := func(id int) (*issl.Conn, *tcpip.TCB, error) {
		tcb, err := workstation.Connect(board.Addr(), 443, 3*time.Second)
		if err != nil {
			return nil, nil, err
		}
		conn, err := issl.BindClient(tcb, issl.Config{
			Profile: issl.ProfileEmbedded, PSK: psk,
			Rand: prng.NewXorshift(uint64(500 + id)),
		})
		if err != nil {
			tcb.Close()
			return nil, nil, err
		}
		return conn, tcb, nil
	}

	// Fill every slot with a live session.
	var conns []*issl.Conn
	var tcbs []*tcpip.TCB
	for i := 0; i < 3; i++ {
		conn, tcb, err := dial(i)
		if err != nil {
			log.Fatalf("client %d: %v", i, err)
		}
		conn.Write([]byte(fmt.Sprintf("slot %d busy", i)))
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err != nil {
			log.Fatalf("client %d echo: %v", i, err)
		}
		fmt.Printf("client %d served: %q\n", i, buf[:n])
		conns = append(conns, conn)
		tcbs = append(tcbs, tcb)
	}

	// Fourth client: all costatement slots are occupied.
	if _, _, err := dial(3); err != nil {
		fmt.Printf("client 3 refused while all slots busy: %v\n", err)
	} else {
		fmt.Println("UNEXPECTED: fourth client served with all slots busy")
	}

	// Free slot 0 and retry.
	conns[0].Close()
	tcbs[0].Close()
	fmt.Println("client 0 disconnected; slot re-listens...")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, tcb, err := dial(4)
		if err != nil {
			continue
		}
		conn.Write([]byte("finally in"))
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err != nil {
			log.Fatalf("late client echo: %v", err)
		}
		fmt.Printf("client 4 served after slot freed: %q\n", buf[:n])
		conn.Close()
		tcb.Close()
		break
	}
	for i := 1; i < 3; i++ {
		conns[i].Close()
		tcbs[i].Close()
	}
	time.Sleep(100 * time.Millisecond)
	st := srv.Stats()
	fmt.Printf("\nembedded redirector stats: %d accepted, %d refused\n",
		st.Accepted.Value(), st.Refused.Value())
}
