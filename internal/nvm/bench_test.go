package nvm

import (
	"testing"

	"tvarak/internal/geom"
	"tvarak/internal/param"
	"tvarak/internal/stats"
)

// Media reads and writes back every LLC miss and writeback; the injectable
// firmware-bug machinery must cost nothing when no bug is armed (the normal
// case — bugs exist only inside fault-injection campaigns).

func mkBenchNVM(b *testing.B) (*Memory, geom.Geometry) {
	b.Helper()
	g, err := geom.New(64, 4096, 1<<20, 16<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	st := &stats.Stats{}
	return New(NVMKind, g, param.OptaneLike(4).Mem, st), g
}

func BenchmarkReadLine(b *testing.B) {
	m, g := mkBenchNVM(b)
	buf := make([]byte, 64)
	base := g.NVMBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint64(i&1023)*64
		if _, err := m.ReadLine(uint64(i), addr, Data, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteLine(b *testing.B) {
	m, g := mkBenchNVM(b)
	data := make([]byte, 64)
	base := g.NVMBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteLine(uint64(i), base+uint64(i&1023)*64, Data, data)
	}
}

func BenchmarkReadLineDRAM(b *testing.B) {
	g, err := geom.New(64, 4096, 1<<20, 16<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	m := New(DRAMKind, g, param.ReproScale(param.Baseline).DRAM, &stats.Stats{})
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadLine(uint64(i), uint64(i&1023)*64, Data, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRawPage(b *testing.B) {
	m, g := mkBenchNVM(b)
	buf := make([]byte, 4096)
	base := g.NVMBase()
	b.ReportAllocs()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadRaw(base+uint64(i&15)*4096, buf)
	}
}

func BenchmarkWriteRawPage(b *testing.B) {
	m, g := mkBenchNVM(b)
	data := make([]byte, 4096)
	base := g.NVMBase()
	b.ReportAllocs()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteRaw(base+uint64(i&15)*4096, data)
	}
}

func BenchmarkEqualRawPage(b *testing.B) {
	m, g := mkBenchNVM(b)
	want := make([]byte, 4096)
	base := g.NVMBase()
	b.ReportAllocs()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.EqualRaw(base+uint64(i&15)*4096, want) {
			b.Fatal("fresh media is not zero")
		}
	}
}
