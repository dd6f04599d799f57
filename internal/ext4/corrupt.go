package ext4

import "fmt"

// CorruptAt flips one bit of name's contents at byte offset off,
// modeling at-rest media corruption (a latent sector error the drive's
// own ECC missed). The damage is applied directly to the stored bytes
// — page cache and device state stay in sync, exactly as a scrubbed
// medium would present it — so it is visible to every subsequent read
// and survives crashes. Views taken before the flip (vfs.ViewReader)
// keep the old bytes. Detection is the reader's job: SSTable blocks
// carry CRC-32C trailers, the WAL carries per-fragment CRCs.
func (fs *FS) CorruptAt(name string, off int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, ok := fs.names[name]
	if !ok {
		return fmt.Errorf("ext4: corrupt %q: no such file", name)
	}
	if off < 0 || off >= in.data.Len() {
		return fmt.Errorf("ext4: corrupt %q: offset %d out of range [0,%d)", name, off, in.data.Len())
	}
	// Copy on write: lock-free readers hold snapshots of the chunk
	// table, and views of the old chunk (cached blocks among them)
	// must keep the bytes they were verified against. Both the flipped
	// chunk and the table that points to it are therefore new; the
	// old ones are left to the garbage collector.
	ci := off / extentBytes
	chunks := append([][]byte(nil), in.data.chunks...)
	chunks[ci] = append(getChunk(), chunks[ci]...)
	chunks[ci][off%extentBytes] ^= 0x40
	in.data.chunks = chunks
	return nil
}
