package crypto

// ghash implements the GHASH universal hash of GCM (McGrew & Viega, cited
// by the paper as the MAC of choice in secure processors): a polynomial
// evaluation over GF(2^128) with the field defined by
// x^128 + x^7 + x^2 + x + 1.
//
// The multiply uses Shoup's 8-bit table method: the engine precomputes
// H·v for every byte v once per key (4 KiB), and each 128-bit block then
// costs 16 table lookups, one per byte, walked by Horner's rule with a
// multiply-by-x^8 between them. The bit-serial gfMul is kept as the
// reference implementation; a property test pins the table method to it,
// and a cross-check pins both to the standard library's GCM. The simulator
// charges a fixed HashLatency regardless, so host-side constant-time
// behaviour is irrelevant here.

// Field elements are [2]uint64 in the GCM bit order: [0] holds the first
// eight bytes (big-endian), [1] the second eight, and the most significant
// bit of [0] is the coefficient of x^0.

// ghashReduction[b] is what multiplying by x^8 folds back into the top 16
// bits when the low byte b (the x^120..x^127 coefficients) shifts off: x^8
// applied to the element holding only b. Like ghashTable.init, it doubles
// the single-bit entries and XORs the rest together, which keeps package
// initialization to about a microsecond.
var ghashReduction = func() (r [256]uint64) {
	for k := 0; k < 8; k++ {
		v := [2]uint64{0, 1 << k}
		for i := 0; i < 8; i++ {
			v = double(v)
		}
		r[1<<k] = v[0]
	}
	for v := 2; v < 256; v <<= 1 {
		for low := 1; low < v; low++ {
			r[v|low] = r[v] ^ r[low]
		}
	}
	return r
}()

// ghashTable holds the per-key precomputation: product[v] = H·v for every
// byte v read as a polynomial in GCM bit order (bit 7 is x^0).
type ghashTable struct {
	product [256][2]uint64
}

// double multiplies an element by x (a right shift in GCM bit order, with
// reduction by the field polynomial when the x^127 coefficient falls off).
func double(v [2]uint64) [2]uint64 {
	carry := v[1] & 1
	v[1] = v[1]>>1 | v[0]<<63
	v[0] >>= 1
	if carry == 1 {
		v[0] ^= 0xe100000000000000
	}
	return v
}

// init fills the multiplication table for subkey h: the single-bit bytes
// are successive doublings of h, every other byte the XOR of its bits.
func (t *ghashTable) init(h [2]uint64) {
	t.product[0x80] = h
	for v := 0x40; v > 0; v >>= 1 {
		t.product[v] = double(t.product[v<<1])
	}
	for v := 2; v < 256; v <<= 1 {
		for low := 1; low < v; low++ {
			p, q := t.product[v], t.product[low]
			t.product[v|low] = [2]uint64{p[0] ^ q[0], p[1] ^ q[1]}
		}
	}
}

// mul multiplies y by the table's subkey H in place, a byte at a time from
// the x^127 end: z = z·x^8 + H·byte.
func (t *ghashTable) mul(y *[2]uint64) {
	z0, z1 := t.walk(0, 0, y[1])
	y[0], y[1] = t.walk(z0, z1, y[0])
}

// walk runs Horner's rule over the eight bytes of w, low byte first.
func (t *ghashTable) walk(z0, z1, w uint64) (uint64, uint64) {
	for i := 0; i < 8; i++ {
		rem := z1 & 0xff
		z1 = z1>>8 | z0<<56
		z0 = z0>>8 ^ ghashReduction[rem]
		p := &t.product[w&0xff]
		z0 ^= p[0]
		z1 ^= p[1]
		w >>= 8
	}
	return z0, z1
}

// ghash is one accumulation in progress.
type ghash struct {
	t *ghashTable
	y [2]uint64
}

func (g *ghash) init(t *ghashTable) {
	g.t = t
	g.y = [2]uint64{}
}

// update absorbs one 128-bit block: Y <- (Y xor X) * H.
func (g *ghash) update(hi, lo uint64) {
	g.y[0] ^= hi
	g.y[1] ^= lo
	g.t.mul(&g.y)
}

// sum folds the 128-bit state to the 64-bit tag used by the simulator.
func (g *ghash) sum() uint64 { return g.y[0] ^ g.y[1] }
