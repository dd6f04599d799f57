package main

import (
	"fmt"
)

// layerMetrics computes the traced run's per-layer metrics. Counter
// deltas and span aggregates come from the traced rounds (median over
// rounds); per-operation latency splits, harness.gen_frac and the
// tracing overhead come from the run's untraced rounds.
func layerMetrics(untraced, traced []*round) []row {
	var (
		rows []row
		per  [][]float64
	)
	for _, r := range traced {
		rs := tracedRound(r)
		if rows == nil {
			rows, per = rs, make([][]float64, len(rs))
		}
		for j, m := range rs {
			per[j] = append(per[j], m.value)
		}
	}
	for j := range rows {
		rows[j].value, rows[j].samples = median(per[j]), len(traced)
	}
	return append(rows, untracedRows(untraced, traced)...)
}

// vfsKept are the seam's (op, class, side) combinations that occur on
// at least one workload; the others (WAL syncs, manifest syncs and
// reads, foreground table writes) stay zero on all three.
var vfsKept = []struct{ op, class, side int }{
	{vfsAppend, clsWAL, 0},
	{vfsAppend, clsTable, 1},
	{vfsAppend, clsManifest, 1},
	{vfsSync, clsTable, 1},
	{vfsReadAt, clsTable, 0},
	{vfsReadAt, clsTable, 1},
}

var sideNames = [2]string{"fg", "bg"}

// spanStats aggregates one traced round's spans.
type spanStats struct {
	count, selfNs    [numKinds]int64
	tableReads       [numKinds]int64
	absentGets       int64
	absentTableReads int64
	// vfs[op][class][side]: side 0 = fg (inside a client's engine
	// call), 1 = bg (any other timeline).
	calls, bytes, wallNs [numVfsOps][numClasses][2]int64
}

func aggregate(r *round) spanStats {
	var st spanStats
	for _, c := range r.ph.clients {
		child := make([]int64, len(c.spans))
		reads := make([]int64, len(c.spans))
		for _, sp := range c.spans {
			if sp.name < uint8(numKinds) {
				continue
			}
			op, cls := st.addVfs(sp, 0)
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
				if op == vfsReadAt && cls == clsTable {
					reads[sp.parent]++
				}
			}
		}
		for i, sp := range c.spans {
			if sp.name >= uint8(numKinds) {
				continue
			}
			st.count[sp.name]++
			st.selfNs[sp.name] += sp.end - sp.start - child[i]
			st.tableReads[sp.name] += reads[i]
			if sp.flag == 1 {
				st.absentGets++
				st.absentTableReads += reads[i]
			}
		}
	}
	for _, sp := range r.bgSpans {
		st.addVfs(sp, 1)
	}
	return st
}

// addVfs counts one vfs span on the given side and returns its
// operation and file class.
func (st *spanStats) addVfs(sp span, side int) (op, cls int) {
	v := int(sp.name) - int(numKinds)
	op, cls = v/numClasses, v%numClasses
	st.calls[op][cls][side]++
	st.bytes[op][cls][side] += int64(sp.bytes)
	st.wallNs[op][cls][side] += sp.end - sp.start
	return op, cls
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func tracedRound(r *round) []row {
	st := aggregate(r)
	ops := float64(r.ph.ops)
	d := func(name string) float64 { return float64(r.delta(name)) }
	// timerSum is a timer's phase delta of total recorded virtual ns.
	timerSum := func(name string) float64 {
		a, b := r.ph.after.Timers[name], r.ph.before.Timers[name]
		return (a.MeanUs*float64(a.Count) - b.MeanUs*float64(b.Count)) * 1e3
	}
	timerN := func(name string) float64 {
		return float64(r.ph.after.Timers[name].Count - r.ph.before.Timers[name].Count)
	}
	histMean := func(name string) float64 {
		a, b := r.ph.after.Hists[name], r.ph.before.Hists[name]
		return ratio(a.Mean*float64(a.Count)-b.Mean*float64(b.Count), float64(a.Count-b.Count))
	}
	puts, gets, scans := float64(st.count[opPut]), float64(st.count[opGet]), float64(st.count[opScan])
	user := d("engine.user_bytes_written")
	var scanned int64
	for _, c := range r.ph.clients {
		scanned += c.scanned
	}
	rows := []row{
		{"engine.put.self_us", ratio(float64(st.selfNs[opPut]), puts) / 1e3, "us", 0},
		{"engine.get.self_us", ratio(float64(st.selfNs[opGet]), gets) / 1e3, "us", 0},
		{"engine.scan.self_us", ratio(float64(st.selfNs[opScan]), scans) / 1e3, "us", 0},
		{"engine.group_commit_size", histMean("engine.group_commit_size"), "count", 0},
	}
	for _, c := range []string{"l0_slowdown", "memtable_full", "compaction_backlog", "wal_rotate"} {
		rows = append(rows, row{"engine.stall." + c + ".ns_per_op", d("engine.stall."+c+".ns") / ops, "vns/op", 0})
	}
	rows = append(rows, row{"engine.files_examined_per_get", ratio(d("engine.get_files_examined"), d("engine.gets")), "count", 0})
	for _, p := range []string{"group_wait", "throttle", "flush", "wal_append", "mem_apply"} {
		rows = append(rows, row{"vphase.write." + p + ".ns_per_op", timerSum("engine.op.write."+p) / ops, "vns/op", 0})
	}
	for _, p := range []string{"memtable", "table_open", "table_fetch"} {
		rows = append(rows, row{"vphase.read." + p + ".ns_per_op", timerSum("engine.op.read."+p) / ops, "vns/op", 0})
	}
	rows = append(rows,
		row{"wal.records_per_put", ratio(d("wal.records"), puts), "count", 0},
		row{"wal.bytes_per_user_byte", ratio(d("wal.bytes"), user), "ratio", 0},
		row{"wal.append_vus", ratio(timerSum("wal.append_duration"), timerN("wal.append_duration")) / 1e3, "vus", 0},
		row{"memtable.rotations", float64(r.walCreates), "count", 0},
		row{"compaction.minor", d("engine.compactions.minor"), "count", 0},
		row{"compaction.major", d("engine.compactions.major"), "count", 0},
		row{"compaction.trivial_move", d("engine.compactions.trivial_moves"), "count", 0},
		row{"compaction.seek", d("engine.compactions.seek"), "count", 0},
		row{"compaction.read_per_user_byte", ratio(d("compaction.bytes_read"), user), "ratio", 0},
		row{"compaction.write_per_user_byte", ratio(d("compaction.bytes_written"), user), "ratio", 0},
		row{"compaction.busy_vus_per_op", (timerSum("engine.compaction.minor_duration") + timerSum("engine.compaction.major_duration")) / 1e3 / ops, "vus/op", 0},
		row{"sstable.reads_per_get", ratio(float64(st.tableReads[opGet]), gets), "count", 0},
		row{"bloom.reads_per_absent_get", ratio(float64(st.absentTableReads), float64(st.absentGets)), "count", 0},
		row{"cache.block.hit_ratio", ratio(d("cache.block.hits"), d("cache.block.hits")+d("cache.block.misses")), "ratio", 0},
		row{"cache.table.hit_ratio", ratio(d("cache.table.hits"), d("cache.table.hits")+d("cache.table.misses")), "ratio", 0},
		row{"cache.block.fills", d("cache.block.fills"), "count", 0},
		row{"iterator.keys_per_scan", ratio(float64(scanned), scans), "count", 0},
		row{"sstable.reads_per_scan", ratio(float64(st.tableReads[opScan]), scans), "count", 0},
		row{"tracker.registered", d("tracker.registered"), "count", 0},
		row{"tracker.resolved", d("tracker.resolved"), "count", 0},
		row{"tracker.syscall_checks", d("tracker.syscall_checks"), "count", 0},
		row{"tracker.preds_deleted", d("tracker.preds_deleted"), "count", 0},
		row{"tracker.shadow_bytes", float64(r.shadowBytes), "B", 0},
		row{"ext4.syncs", d("ext4.syncs"), "count", 0},
		row{"ext4.syncs_per_minor", ratio(d("ext4.syncs"), d("engine.compactions.minor")), "ratio", 0},
		row{"ext4.bytes_synced", d("ext4.bytes_synced"), "B", 0},
		row{"ext4.async_commits", d("ext4.async_commits"), "count", 0},
		row{"ext4.stall.sync_ns_per_op", d("ext4.stall.sync_ns") / ops, "vns/op", 0},
		row{"ext4.stall.barrier_ns_per_op", d("ext4.stall.barrier_ns") / ops, "vns/op", 0},
		row{"ext4.stall.throttle_ns_per_op", d("ext4.stall.throttle_ns") / ops, "vns/op", 0},
	)
	for _, v := range vfsKept {
		base := fmt.Sprintf("vfs.%s.%s.%s.", vfsOpNames[v.op], vfsClassNames[v.class], sideNames[v.side])
		rows = append(rows, row{base + "calls_per_op", float64(st.calls[v.op][v.class][v.side]) / ops, "count/op", 0})
		if v.op != vfsSync {
			rows = append(rows, row{base + "bytes_per_op", float64(st.bytes[v.op][v.class][v.side]) / ops, "B/op", 0})
		}
		rows = append(rows, row{base + "wall_ns_per_op", float64(st.wallNs[v.op][v.class][v.side]) / ops, "ns/op", 0})
	}
	rows = append(rows,
		row{"ssd.bytes_written", d("ssd.bytes_written"), "B", 0},
		row{"ssd.writes", d("ssd.writes"), "count", 0},
		row{"ssd.flushes", d("ssd.flushes"), "count", 0},
		row{"ssd.busy_ns_per_op", d("ssd.busy_ns") / ops, "vns/op", 0},
		row{"runtime.gc_cycles", float64(r.ph.mem1.NumGC - r.ph.mem0.NumGC), "count", 0},
		row{"runtime.gc_pause_ns", float64(r.ph.mem1.PauseTotalNs - r.ph.mem0.PauseTotalNs), "ns", 0},
		row{"runtime.mallocs_per_op", float64(r.ph.mem1.Mallocs-r.ph.mem0.Mallocs) / ops, "count/op", 0},
	)
	return rows
}

// untracedRows are the per-layer metrics read from untraced rounds.
func untracedRows(untraced, traced []*round) []row {
	var lat [numKinds][]int64
	var vput []int64 // virtual Put latencies
	var gen []float64
	for _, r := range untraced {
		var call, loop int64
		for _, c := range r.ph.clients {
			for k := range c.wall {
				lat[k] = append(lat[k], c.wall[k]...)
			}
			vput = append(vput, c.virt[opPut]...)
			call += c.callNs
			loop += c.loopNs
		}
		gen = append(gen, ratio(float64(loop-call), float64(loop)))
	}
	opsPerS := func(rs []*round) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(r.ph.ops)/r.ph.wall.Seconds())
		}
		return median(xs)
	}
	var rows []row
	for k := opKind(0); k < numKinds; k++ {
		rows = append(rows,
			row{"lat." + kindNames[k] + ".p50_us", percentile(lat[k], 50) / 1e3, "us", len(lat[k])},
			row{"lat." + kindNames[k] + ".p99_us", percentile(lat[k], 99) / 1e3, "us", len(lat[k])},
		)
	}
	return append(rows,
		row{"lat.vput_tail99_us", tailMean(vput, 0.01) / 1e3, "vus", len(vput)},
		row{"harness.gen_frac", median(gen), "ratio", len(gen)},
		row{"trace.overhead_ratio", ratio(opsPerS(untraced), opsPerS(traced)), "ratio", len(untraced) + len(traced)},
	)
}
