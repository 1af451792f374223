package packet

import (
	"encoding/binary"
	"net/netip"
)

// onesSum accumulates the 16-bit one's-complement sum over data into acc.
// A trailing odd byte is padded with zero, per RFC 1071.
//
// It reads eight bytes per step and adds them as two 32-bit words:
// 2^16 ≡ 1 (mod 0xffff), so a wider word contributes the same residue
// as the 16-bit words it is made of, and folding with end-around carry
// never turns a non-zero sum into zero. The data's contribution is
// folded to 16 bits before it joins acc, so acc grows by at most
// 0xffff per call and foldChecksum(acc) is exactly what summing 16-bit
// words one at a time gives.
func onesSum(acc uint32, data []byte) uint32 {
	var sum uint64 // each step adds < 2^33: no overflow below 16 GiB of data
	for len(data) >= 32 {
		a := binary.BigEndian.Uint64(data)
		b := binary.BigEndian.Uint64(data[8:])
		c := binary.BigEndian.Uint64(data[16:])
		d := binary.BigEndian.Uint64(data[24:])
		sum += a>>32 + a&0xffffffff + b>>32 + b&0xffffffff
		sum += c>>32 + c&0xffffffff + d>>32 + d&0xffffffff
		data = data[32:]
	}
	for len(data) >= 8 {
		v := binary.BigEndian.Uint64(data)
		sum += v>>32 + v&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return acc + uint32(sum)
}

// foldChecksum folds a 32-bit accumulator into the final 16-bit
// one's-complement checksum.
func foldChecksum(acc uint32) uint16 {
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return ^uint16(acc)
}

// ipv4HeaderChecksum computes the IPv4 header checksum over hdr with the
// checksum field (bytes 10-11) treated as zero.
func ipv4HeaderChecksum(hdr []byte) uint16 {
	acc := onesSum(0, hdr[:10])
	acc = onesSum(acc, hdr[12:])
	return foldChecksum(acc)
}

// pseudoHeaderSum returns the one's-complement sum of the TCP/UDP
// pseudo-header for the given address pair, protocol, and segment length.
// It handles both IPv4 (RFC 793) and IPv6 (RFC 8200) pseudo-headers.
func pseudoHeaderSum(src, dst netip.Addr, protocol uint8, length int) uint32 {
	var acc uint32
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		acc = onesSum(acc, s[:])
		acc = onesSum(acc, d[:])
		acc += uint32(protocol)
		acc += uint32(length)
		return acc
	}
	s, d := src.As16(), dst.As16()
	acc = onesSum(acc, s[:])
	acc = onesSum(acc, d[:])
	acc += uint32(length >> 16)
	acc += uint32(length & 0xffff)
	acc += uint32(protocol)
	return acc
}

// tcpChecksum computes the TCP checksum for segment (header+payload with
// the checksum field zeroed) between src and dst.
func tcpChecksum(src, dst netip.Addr, segment []byte) uint16 {
	acc := pseudoHeaderSum(src, dst, protoTCP, len(segment))
	acc = onesSum(acc, segment)
	return foldChecksum(acc)
}

// protoTCP is the IP protocol number for TCP.
const protoTCP = 6
