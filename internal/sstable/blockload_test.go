package sstable

import (
	"fmt"
	"runtime"
	"testing"

	"noblsm/internal/cache"
	"noblsm/internal/ext4"
	"noblsm/internal/keys"
	"noblsm/internal/ssd"
	"noblsm/internal/vclock"
)

// loadTestEntries 1 KiB values fill roughly four entries per 4 KiB
// block, so a table spans hundreds of blocks.
const (
	loadTestEntries = 2000
	loadTestValue   = 1024
)

// buildViewTable writes an uncompressed table of 1 KiB values to a
// fresh ext4 filesystem (whose files offer page-cache views) and opens
// it over a block cache far smaller than one block, so every data
// block load misses.
func buildViewTable(tb testing.TB) (*Reader, *vclock.Timeline) {
	tb.Helper()
	fs := ext4.New(ext4.DefaultConfig(), ssd.New(ssd.PM883()))
	tl := vclock.NewTimeline(0)
	f, err := fs.Create(tl, "000001.ldb")
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBuilder(f, DefaultOptions())
	val := make([]byte, loadTestValue)
	for i := 0; i < loadTestEntries; i++ {
		for j := range val {
			val[j] = byte(i + j)
		}
		if err := b.Add(tl, ik(fmt.Sprintf("key%06d", i), keys.SeqNum(i+1)), val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := b.Finish(tl); err != nil {
		tb.Fatal(err)
	}
	r, err := Open(tl, f, DefaultOptions(), 1, cache.New(1024))
	if err != nil {
		tb.Fatal(err)
	}
	return r, tl
}

func seekKeys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), keys.MaxSeqNum, keys.KindSeek)
	}
	return out
}

// TestGetMissParsesPageCacheInPlace: a Get that misses the block cache
// on a resident, uncompressed block parses the page-cache view in
// place — no block-sized buffer is allocated or copied into. What
// remains per Get is the iterator and block-reader bookkeeping, a few
// hundred bytes against a 4 KiB block.
func TestGetMissParsesPageCacheInPlace(t *testing.T) {
	r, tl := buildViewTable(t)
	seeks := seekKeys(loadTestEntries)
	var i int
	get := func() {
		// Stride across blocks so consecutive Gets never share one.
		k := seeks[(i*37)%len(seeks)]
		i++
		if _, v, found, err := r.Get(tl, k); err != nil || !found || len(v) != loadTestValue {
			t.Fatalf("Get: found=%v len=%d err=%v", found, len(v), err)
		}
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, get)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before the measured runs.
	bytesPerGet := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if fills := r.blocks.Fills(); fills < runs {
		t.Fatalf("only %d block-cache fills over %d Gets: the Gets did not miss", fills, runs)
	}
	if bytesPerGet >= float64(DefaultOptions().BlockSize/2) {
		t.Fatalf("cache-missing Get allocates %.0f B (%.1f allocs): a block-sized buffer is back on the miss path",
			bytesPerGet, allocs)
	}
	t.Logf("cache-missing Get: %.1f allocs, %.0f B", allocs, bytesPerGet)
}

// BenchmarkReaderGetMiss measures point lookups that miss the block
// cache on every call: index seek, block load from the page cache, CRC
// check and parse.
func BenchmarkReaderGetMiss(b *testing.B) {
	r, tl := buildViewTable(b)
	seeks := seekKeys(loadTestEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found, err := r.Get(tl, seeks[(i*37)%len(seeks)]); err != nil || !found {
			b.Fatalf("Get: found=%v err=%v", found, err)
		}
	}
}

// BenchmarkReaderCompactionScan measures one full no-fill scan of the
// table, as a compaction reads each input: every block loaded once and
// never inserted in the cache.
func BenchmarkReaderCompactionScan(b *testing.B) {
	r, tl := buildViewTable(b)
	b.ReportAllocs()
	b.SetBytes(int64(loadTestEntries * loadTestValue))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := r.NewCompactionIterator(tl)
		n := 0
		for it.First(); it.Valid(); it.Next() {
			n++
		}
		if err := it.Err(); err != nil || n != loadTestEntries {
			b.Fatalf("scan: %d entries, err=%v", n, err)
		}
	}
}
