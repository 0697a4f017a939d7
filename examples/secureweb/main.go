// Secure web example: the paper's motivating scenario — SSL "layers on
// top of TCP/IP to provide secure communications, e.g., to encrypt web
// pages with sensitive information" (§2). The board serves a public
// page and a sensitive page over issl; a workstation fetches both; a
// third port on the hub plays packet sniffer and demonstrates the
// sensitive content never crosses the wire in the clear.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/httpmin"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/tcpip"
)

const secretMarker = "ACCT-8842-BALANCE"

func main() {
	hub := netsim.NewHub()
	defer hub.Close()
	workstation, err := tcpip.NewStack(hub, tcpip.IP4(10, 3, 0, 1))
	if err != nil {
		log.Fatal(err)
	}
	defer workstation.Close()
	board, err := tcpip.NewStack(hub, tcpip.IP4(10, 3, 0, 2))
	if err != nil {
		log.Fatal(err)
	}
	defer board.Close()

	// The sniffer: a promiscuous port capturing every frame on the hub.
	sniffer, err := hub.AttachPromiscuous(netsim.MAC{0x02, 0xBA, 0xD0, 0, 0, 1})
	if err != nil {
		log.Fatal(err)
	}
	var captured bytes.Buffer
	sniffed := make(chan struct{})
	go func() {
		defer close(sniffed)
		for range sniffer.Ready() { // closes with the port, after its last frames
			frames, _ := sniffer.Drain()
			for _, f := range frames {
				captured.Write(f.Payload()) // copies out of the drain slab
			}
		}
	}()

	pages := func(req httpmin.Request) httpmin.Response {
		switch req.Path {
		case "/":
			return httpmin.Text(200, "RMC2000 secure gateway — public index\n")
		case "/account":
			return httpmin.Text(200, secretMarker+": 1,234,567.89\n")
		default:
			return httpmin.NotFound()
		}
	}

	psk := []byte("board-web-psk")
	listener, err := board.Listen(443, 4)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for i := 0; ; i++ {
			tcb, err := listener.Accept(10 * time.Second)
			if err != nil {
				return
			}
			go func(id int, tcb *tcpip.TCB) {
				defer tcb.Close()
				sc, err := issl.BindServer(tcb, issl.Config{
					Profile: issl.ProfileEmbedded, PSK: psk,
					Rand: prng.NewXorshift(uint64(40 + id)),
				})
				if err != nil {
					log.Printf("server handshake: %v", err)
					return
				}
				if err := httpmin.Serve(sc, pages); err != nil {
					log.Printf("serve: %v", err)
				}
				sc.Close()
			}(i, tcb)
		}
	}()

	fetch := func(path string, seed uint64) httpmin.Response {
		tcb, err := workstation.Connect(board.Addr(), 443, 5*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer tcb.Close()
		sc, err := issl.BindClient(tcb, issl.Config{
			Profile: issl.ProfileEmbedded, PSK: psk, Rand: prng.NewXorshift(seed)})
		if err != nil {
			log.Fatal(err)
		}
		resp, err := httpmin.Get(sc, path)
		if err != nil {
			log.Fatal(err)
		}
		sc.Close()
		return resp
	}

	index := fetch("/", 1)
	fmt.Printf("GET /        -> %d %q\n", index.Status, index.Body)
	account := fetch("/account", 2)
	fmt.Printf("GET /account -> %d %q\n", account.Status, account.Body)
	missing := fetch("/nothing", 3)
	fmt.Printf("GET /nothing -> %d\n", missing.Status)

	// Unplug the sniffer and wait until it has drained every frame it
	// saw before reading what it captured.
	sniffer.Close()
	<-sniffed
	if bytes.Contains(captured.Bytes(), []byte(secretMarker)) {
		fmt.Println("\n!!! the sensitive marker crossed the wire IN THE CLEAR")
	} else {
		fmt.Printf("\nsniffer captured %d bytes off the hub; the marker %q appears nowhere in them\n",
			captured.Len(), secretMarker)
	}
}
