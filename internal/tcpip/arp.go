package tcpip

import (
	"repro/internal/netsim"
)

// ARP resolution: before an IP packet can leave the NIC the stack must
// map the destination IP to a MAC. Requests broadcast; replies unicast.
// Packets awaiting resolution queue per destination and flush when the
// reply arrives (or drop after the pending queue fills — the sender's
// transport retransmits).

const (
	arpRequest = 1
	arpReply   = 2

	maxPendingARP = 32
)

// marshalARP builds the 28-byte Ethernet/IPv4 ARP body.
func marshalARP(op uint16, senderMAC netsim.MAC, senderIP Addr, targetMAC netsim.MAC, targetIP Addr) []byte {
	b := make([]byte, 28)
	put16(b[0:], 1)      // hardware: Ethernet
	put16(b[2:], 0x0800) // protocol: IPv4
	b[4] = 6             // MAC length
	b[5] = 4             // IP length
	put16(b[6:], op)
	copy(b[8:14], senderMAC[:])
	copy(b[14:18], senderIP[:])
	copy(b[18:24], targetMAC[:])
	copy(b[24:28], targetIP[:])
	return b
}

type arpPacket struct {
	op        uint16
	senderMAC netsim.MAC
	senderIP  Addr
	targetIP  Addr
}

func parseARP(b []byte) (arpPacket, bool) {
	if len(b) < 28 || be16(b[0:]) != 1 || be16(b[2:]) != 0x0800 || b[4] != 6 || b[5] != 4 {
		return arpPacket{}, false
	}
	var p arpPacket
	p.op = be16(b[6:])
	copy(p.senderMAC[:], b[8:14])
	copy(p.senderIP[:], b[14:18])
	copy(p.targetIP[:], b[24:28])
	return p, true
}

// handleARP processes an incoming ARP frame. Called with s.mu held.
func (s *Stack) handleARP(body []byte) {
	p, ok := parseARP(body)
	if !ok {
		return
	}
	// Learn the sender mapping regardless of operation.
	s.arpCache[p.senderIP] = p.senderMAC
	// Flush any packets that were waiting on this mapping.
	if pend := s.arpPending[p.senderIP]; len(pend) > 0 {
		delete(s.arpPending, p.senderIP)
		for _, pkt := range pend {
			s.sendFrame(p.senderMAC, netsim.EtherTypeIPv4, pkt)
		}
	}
	if p.op == arpRequest && p.targetIP == s.ip {
		reply := marshalARP(arpReply, s.mac, s.ip, p.senderMAC, p.senderIP)
		s.sendFrame(p.senderMAC, netsim.EtherTypeARP, reply)
	}
}

// sendIP routes an already-marshaled IP packet: resolve the
// destination MAC, queueing behind an ARP request if unknown. Called
// with s.mu held. pkt may alias a caller's reusable scratch buffer:
// Port.Send copies payloads at the wire boundary, and a packet parked
// behind ARP resolution is copied before queueing.
func (s *Stack) sendIP(dst Addr, pkt []byte) {
	if mac, ok := s.arpCache[dst]; ok {
		s.sendFrame(mac, netsim.EtherTypeIPv4, pkt)
		return
	}
	pend := s.arpPending[dst]
	if len(pend) >= maxPendingARP {
		return // drop; transport-level retransmission recovers
	}
	s.arpPending[dst] = append(pend, append([]byte(nil), pkt...))
	req := marshalARP(arpRequest, s.mac, s.ip, netsim.MAC{}, dst)
	s.sendFrame(netsim.Broadcast, netsim.EtherTypeARP, req)
}

// sendFrame transmits one frame. Called with s.mu held.
func (s *Stack) sendFrame(dst netsim.MAC, etherType uint16, payload []byte) {
	_ = s.port.Send(netsim.Frame{Dst: dst, EtherType: etherType, Payload: payload})
}
