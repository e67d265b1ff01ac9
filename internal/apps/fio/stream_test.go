package fio

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestByteStreamMatchesRandRead checks byteStream against rand.Rand.Read
// byte for byte: 20 seeds, 300 consecutive reads each with random lengths
// in [0, 5000] (most not multiples of 7), so leftover bytes carry across
// calls exactly as Rand.Read carries them.
func TestByteStreamMatchesRandRead(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ref := rand.New(rand.NewSource(seed))
		bs := byteStream{src: rand.NewSource(seed)}
		lens := rand.New(rand.NewSource(1000 + seed))
		for call := 0; call < 300; call++ {
			n := lens.Intn(5001)
			if call%50 == 0 {
				n = lens.Intn(9) // short reads that only drain or top up the carry
			}
			want, got := make([]byte, n), make([]byte, n)
			ref.Read(want)
			bs.Read(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d call %d (len %d): byteStream differs from rand.Rand.Read", seed, call, n)
			}
		}
	}
}

func BenchmarkByteStreamPage(b *testing.B) {
	bs := byteStream{src: rand.NewSource(7)}
	page := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		bs.Read(page)
	}
}
