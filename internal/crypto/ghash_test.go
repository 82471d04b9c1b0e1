package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"metaleak/internal/arch"
)

// gfMul multiplies two elements of GF(2^128) in the GCM bit order: the
// classic shift-and-conditionally-reduce bit-serial multiply. It is the
// reference the table method is tested against; production paths use
// ghashTable.mul.
func gfMul(x, y [2]uint64) [2]uint64 {
	var z [2]uint64
	v := y
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = (x[0] >> (63 - i)) & 1
		} else {
			bit = (x[1] >> (127 - i)) & 1
		}
		if bit == 1 {
			z[0] ^= v[0]
			z[1] ^= v[1]
		}
		v = double(v)
	}
	return z
}

// TestGhashReductionTable pins the XOR-combined reduction table to x^8
// applied by double to every byte, one bit at a time.
func TestGhashReductionTable(t *testing.T) {
	for b, got := range ghashReduction {
		v := [2]uint64{0, uint64(b)}
		for i := 0; i < 8; i++ {
			v = double(v)
		}
		if want := [2]uint64{got, 0}; v != want {
			t.Errorf("ghashReduction[%#02x] = %016x, want x^8 reduction %016x", b, got, v)
		}
	}
}

func TestGhashTableMatchesBitSerial(t *testing.T) {
	// The table-driven multiply must agree with the reference bit-serial
	// gfMul for every subkey and operand — it is what keeps the optimized
	// MAC/HashBytes byte-identical to the pre-optimization engine.
	check := func(h, y [2]uint64) bool {
		var tbl ghashTable
		tbl.init(h)
		got := y
		tbl.mul(&got)
		return got == gfMul(y, h)
	}
	f := func(h0, h1, y0, y1 uint64) bool {
		return check([2]uint64{h0, h1}, [2]uint64{y0, y1})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Edge operands: zero, the field's one (x^0 is the MSB), all ones, and
	// single bits at each byte and word boundary (bit i is x^i).
	edges := [][2]uint64{{0, 0}, {1 << 63, 0}, {^uint64(0), ^uint64(0)}}
	for _, i := range []uint{0, 7, 8, 63, 64, 127} {
		var v [2]uint64
		v[i/64] = 1 << (63 - i%64)
		edges = append(edges, v)
	}
	for _, h := range edges {
		for _, y := range edges {
			if !check(h, y) {
				t.Errorf("H=%016x, y=%016x: table multiply differs from gfMul", h, y)
			}
		}
	}
}

// TestGhashMatchesStdlibGCM pins the table multiply to an independent
// implementation: for an empty plaintext, a GCM tag is
// GHASH_H(aad ‖ lengths) XOR AES_K(J0) with H = AES_K(0), so undoing the
// XOR must leave exactly the state the engine's ghash reaches over the
// same blocks.
func TestGhashMatchesStdlibGCM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 32; trial++ {
		key := make([]byte, 16)
		nonce := make([]byte, 12)
		aad := make([]byte, 16*rng.Intn(12))
		rng.Read(key)
		rng.Read(nonce)
		rng.Read(aad)

		blk, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		gcm, err := cipher.NewGCM(blk)
		if err != nil {
			t.Fatal(err)
		}
		tag := gcm.Seal(nil, nonce, nil, aad)
		var j0, ekj0 [16]byte
		copy(j0[:], nonce)
		j0[15] = 1
		blk.Encrypt(ekj0[:], j0[:])
		for i := range tag {
			tag[i] ^= ekj0[i]
		}

		e := New(Config{Key: key})
		var g ghash
		g.init(&e.tbl)
		for b := aad; len(b) > 0; b = b[16:] {
			g.update(binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:]))
		}
		g.update(uint64(8*len(aad)), 0)
		want := [2]uint64{binary.BigEndian.Uint64(tag), binary.BigEndian.Uint64(tag[8:])}
		if g.y != want {
			t.Fatalf("trial %d (%d-byte aad): ghash state %016x, GCM gives %016x", trial, len(aad), g.y, want)
		}
	}
}

// katBlock is the patterned ciphertext block the MAC vectors use.
func katBlock(fill int) *Block {
	var ct Block
	for i := range ct {
		ct[i] = byte(fill*37 + i*11)
	}
	return &ct
}

// katBytes is the patterned HashBytes input of length n.
func katBytes(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i*7 + 1)
	}
	return d
}

// TestEngineKnownAnswers pins MACOf, HashBytes and Encrypt to vectors
// recorded on the 4-bit-table engine, so a table rewrite that drifts from
// it changes every MAC and tree hash a run stores — and fails here first.
// The HashBytes lengths cover the empty input, partial and exact 16-byte
// chunks, a counter-block hash input (72 B), an SCT node (144 B) and a
// 528-byte node.
func TestEngineKnownAnswers(t *testing.T) {
	type macVec struct {
		fill int
		b    arch.BlockID
		ctr  uint64
		want uint64
	}
	type hashVec struct {
		n    int
		want uint64
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		macs []macVec
		hash []hashVec
	}{
		{
			name: "default key",
			cfg:  DefaultConfig(),
			macs: []macVec{
				{1, 42, 7, 0x4da4652a1b83e763},
				{2, 0x3fffff, 1<<63 | 5, 0xb4ce863af237728b},
				{3, 1 << 40, ^uint64(0), 0xa42384c3a36b4982},
			},
			hash: []hashVec{
				{0, 0x9790f84ad2235b38}, {1, 0x18d138335140e178}, {8, 0xcbfa9c8c6a2f9398},
				{15, 0xaaea42bae23734e9}, {16, 0xf5ca0bebaad5de6e}, {17, 0x5dc1e1da8574dbea},
				{72, 0x13f9349ec5f143f1}, {144, 0x503a82563788ee5e}, {528, 0x48bd5263d77c6dfd},
			},
		},
		{
			name: "explicit MACKey",
			cfg:  Config{MACKey: []byte("metaleak-mac-kat"), AESLatency: 20, HashLatency: 20},
			macs: []macVec{
				{1, 42, 7, 0xf192e13cc0bda7a9},
				{2, 0x3fffff, 1<<63 | 5, 0x814ba4ae338b8a8a},
				{3, 1 << 40, ^uint64(0), 0x305e3047f7678445},
			},
			hash: []hashVec{
				{0, 0x89912f794cc54a81}, {1, 0xee7c3eaacaf036a9}, {8, 0xa6a9f181bcfe623d},
				{15, 0x69168dea78f21082}, {16, 0xb8025d9b650e2960}, {17, 0xda4c3ba786ec603b},
				{72, 0xa4e6b76412c7e7c6}, {144, 0x5228788c650a471b}, {528, 0xfb2e241961f713ff},
			},
		},
	} {
		e := New(tc.cfg)
		for _, v := range tc.macs {
			if got := e.MACOf(katBlock(v.fill), v.b, v.ctr); got != v.want {
				t.Errorf("%s: MACOf(block %d, %#x, %#x) = %#016x, want %#016x", tc.name, v.fill, v.b, v.ctr, got, v.want)
			}
		}
		for _, v := range tc.hash {
			if got := e.HashBytes(katBytes(v.n)); got != v.want {
				t.Errorf("%s: HashBytes(%d bytes) = %#016x, want %#016x", tc.name, v.n, got, v.want)
			}
		}
	}

	var p Block
	for i := range p {
		p[i] = byte(i)
	}
	ct := eng().Encrypt(p, 42, 7)
	const want = "89527c3a7be86808ca9c7804c16701786ff3d7c40eed8a43667a130bd7926c59" +
		"5c92e19cc611623457f80b7bab6ac39b799a449500d1f3939ce15c54a103af59"
	if got := fmt.Sprintf("%x", ct); got != want {
		t.Errorf("Encrypt(0..63, 42, 7) = %s, want %s", got, want)
	}
}

func TestEncryptToInPlace(t *testing.T) {
	e := eng()
	f := func(p Block, addr uint32, c uint64) bool {
		b := arch.BlockID(addr)
		want := e.Encrypt(p, b, c)
		x := p
		e.EncryptTo(&x, &x, b, c)
		if x != want {
			return false
		}
		e.DecryptTo(&x, &x, b, c)
		return x == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineZeroAllocs pins the controller's per-access crypto calls to
// zero heap allocations.
func TestEngineZeroAllocs(t *testing.T) {
	e := eng()
	ct := katBlock(1)
	var dst Block
	counter := katBytes(72)
	node := katBytes(528)
	for name, f := range map[string]func(){
		"MACOf":          func() { _ = e.MACOf(ct, 42, 7) },
		"HashBytes(72)":  func() { _ = e.HashBytes(counter) },
		"HashBytes(528)": func() { _ = e.HashBytes(node) },
		"EncryptTo":      func() { e.EncryptTo(&dst, ct, 42, 7) },
		"DecryptTo":      func() { e.DecryptTo(&dst, ct, 42, 7) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", name, n)
		}
	}
}
