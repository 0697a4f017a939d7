// Package repro reproduces "Porting a Network Cryptographic Service to
// the RMC2000: A Case Study in Embedded Software Development" (Jan,
// de Dios, Edwards; DATE 2003) as a complete simulated system:
//
//   - internal/crypto/{aes,bignum,rsa,sha1,prng}: the cryptographic
//     primitives the issl library is built from, all from scratch;
//   - internal/{netsim,tcpip,dcsock}: the wire, a TCP/IP stack whose
//     blocking calls are the BSD side of the paper's Fig. 2, and the
//     Dynamic C socket API that is its other side;
//   - internal/{costate,embedded}: Dynamic C's cooperative
//     multitasking model and the §5 porting workarounds;
//   - internal/issl and internal/redirector: the cryptographic
//     service in both its Unix and its ported embedded form;
//   - internal/{rabbit,rasm,dcc,rmc2000}: the Rabbit 2000 CPU
//     simulator, an assembler, a Dynamic C subset compiler with the
//     §6 optimization knobs, and the development board;
//   - internal/{aesasm,aesc}: the two AES implementations of the
//     paper's headline experiment;
//   - internal/core: the harness that regenerates every result.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured numbers. The benchmarks in bench_test.go drive the
// same harness under `go test -bench`.
package repro
