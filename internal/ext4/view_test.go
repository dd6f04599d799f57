package ext4

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"noblsm/internal/vclock"
	"noblsm/internal/vfs"
)

// pattern is the byte stored at file offset off in these tests, so a
// reader can check any range without coordinating with the writer.
func pattern(off int64) byte { return byte(off*7 + off>>9) }

func patterned(off int64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = pattern(off + int64(i))
	}
	return p
}

// TestLockFreeReadsRaceAppend drives the lock-free resident read paths
// — ReadAt's unlocked chunk copy and ReadView's alias — against an
// Append growing the same inode across extent-chunk boundaries. Readers
// chase the tail chunk, the one element of the chunk table Append
// rewrites. Run under -race: any load of that element outside fs.mu is
// a data race even when its value is discarded.
func TestLockFreeReadsRaceAppend(t *testing.T) {
	fs := newTestFS()
	wtl := vclock.NewTimeline(0)
	w, err := fs.Create(wtl, "f")
	if err != nil {
		t.Fatal(err)
	}
	const piece, total = 1000, 3*extentBytes + extentBytes/2
	if err := w.Append(wtl, patterned(0, piece)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tl := vclock.NewTimeline(0)
			r, err := fs.Open(tl, "f")
			if err != nil {
				errs <- err
				return
			}
			defer r.Close(tl)
			vr := r.(vfs.ViewReader)
			buf := make([]byte, 2*piece)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				size := r.Size()
				n := int64(len(buf))
				if n > size {
					n = size
				}
				off := size - n
				if g == 0 || i%2 == 0 {
					if _, err := r.ReadAt(tl, buf[:n], off); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(buf[:n], patterned(off, int(n))) {
						errs <- fmt.Errorf("ReadAt [%d,%d) returned wrong bytes", off, off+n)
						return
					}
					continue
				}
				v, ok, err := vr.ReadView(tl, int(n), off)
				if err != nil {
					errs <- err
					return
				}
				if ok && !bytes.Equal(v, patterned(off, int(n))) {
					errs <- fmt.Errorf("ReadView [%d,%d) returned wrong bytes", off, off+n)
					return
				}
			}
		}(g)
	}
	for off := int64(piece); off < total; off += piece {
		if err := w.Append(wtl, patterned(off, piece)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestViewSurvivesCorruptAt: at-rest corruption copies the chunk it
// flips, so a view taken earlier (a cached, CRC-verified block) keeps
// the bytes it was verified against while every fresh read sees the
// damage.
func TestViewSurvivesCorruptAt(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	f, _ := fs.Create(tl, "t")
	f.Append(tl, patterned(0, 10000))
	view, ok, err := f.(vfs.ViewReader).ReadView(tl, 100, 100)
	if err != nil || !ok {
		t.Fatalf("ReadView: ok=%v err=%v", ok, err)
	}
	want := patterned(100, 100)
	if err := fs.CorruptAt("t", 150); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, want) {
		t.Fatal("CorruptAt changed bytes under a live view")
	}
	got := make([]byte, 100)
	if _, err := f.ReadAt(tl, got, 100); err != nil {
		t.Fatal(err)
	}
	want[50] ^= 0x40
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh read after CorruptAt: byte 150 = %#x, want flipped %#x", got[50], want[50])
	}
}

// TestViewSurvivesCrash: a crash severs the handle a view was taken
// through before its owner can drop the view, so the chunks behind
// it — of a file the crash rolls back and of one it drops entirely —
// must not be recycled into files written after the crash.
func TestViewSurvivesCrash(t *testing.T) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	kept, _ := fs.Create(tl, "kept")
	kept.Append(tl, patterned(0, 1000))
	fs.ForceCommit(tl)
	// The second chunk is appended after the commit: the crash cuts it.
	kept.Append(tl, patterned(1000, 2*extentBytes))
	lost, _ := fs.Create(tl, "lost")
	lost.Append(tl, patterned(0, extentBytes))

	keptView, ok, err := kept.(vfs.ViewReader).ReadView(tl, 4096, extentBytes+100)
	if err != nil || !ok {
		t.Fatalf("ReadView kept: ok=%v err=%v", ok, err)
	}
	lostView, ok, err := lost.(vfs.ViewReader).ReadView(tl, 4096, 100)
	if err != nil || !ok {
		t.Fatalf("ReadView lost: ok=%v err=%v", ok, err)
	}

	fs.Crash(tl.Now())
	if got := fs.DurableSize("kept"); got != 1000 {
		t.Fatalf("kept durable size %d, want 1000", got)
	}
	// Closing the severed handles is the last release of the dropped
	// file's memory.
	kept.Close(tl)
	lost.Close(tl)
	for i := 0; i < 4; i++ {
		f, _ := fs.Create(tl, fmt.Sprintf("new%d", i))
		junk := bytes.Repeat([]byte{0xA5}, extentBytes)
		f.Append(tl, junk)
		f.Append(tl, junk)
	}
	if !bytes.Equal(keptView, patterned(extentBytes+100, 4096)) {
		t.Fatal("view of rolled-back bytes changed after the crash")
	}
	if !bytes.Equal(lostView, patterned(100, 4096)) {
		t.Fatal("view of a crash-dropped file changed after the crash")
	}
}

// benchResidentFile returns a read handle on a resident 1 MiB file.
func benchResidentFile(b *testing.B) (vfs.File, *vclock.Timeline) {
	fs := newTestFS()
	tl := vclock.NewTimeline(0)
	w, _ := fs.Create(tl, "f")
	w.Append(tl, patterned(0, 4*extentBytes))
	r, err := fs.Open(tl, "f")
	if err != nil {
		b.Fatal(err)
	}
	return r, tl
}

// BenchmarkReadAtResident4K is the copying block read: a 4 KiB
// resident ReadAt into a caller buffer.
func BenchmarkReadAtResident4K(b *testing.B) {
	r, tl := benchResidentFile(b)
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadAt(tl, buf, int64(i%200)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadViewResident4K is the zero-copy block read the SSTable
// loader prefers: the same range handed out as a page-cache view.
func BenchmarkReadViewResident4K(b *testing.B) {
	r, tl := benchResidentFile(b)
	vr := r.(vfs.ViewReader)
	b.ReportAllocs()
	b.ResetTimer()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, ok, err := vr.ReadView(tl, 4096, int64(i%200)*4096); err != nil || !ok {
			b.Fatalf("ReadView: ok=%v err=%v", ok, err)
		}
	}
}
