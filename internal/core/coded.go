package core

import (
	"errors"
	"fmt"
	"sort"

	"soifft/internal/erasure"
)

// Coded-exchange tags live in a far negative band of their own, away
// from the collective tags of both transports (mpi: -1..-6 and the
// pairwise -6-d series; mpinet: -4..-7) and the positive halo band.
const (
	tagCodedData    = -1000 // the all-to-all data chunk C_{src→dst}
	tagCodedParity  = -1001 // parity share i of a source's codeword: tagCodedParity - i
	tagCodedView    = -1100 // post-exchange liveness/receipt masks
	tagCodedAgree   = -1101 // dead-set agreement masks
	tagCodedOutcome = -1102 // coordinator's decode verdict to each survivor
	tagCodedPool    = -1200 // share pooling for dead rank d: tagCodedPool - d
	tagCodedRefill  = -1300 // reconstructed chunk refill for dead rank d: tagCodedRefill - d
	tagCodedGather  = -1400 // degraded gather; dead rank d's block: tagCodedGather - 1 - d
)

// CodedComm is a Comm with the CheckedComm capability: per-peer checked
// send and receive, where a dead peer is an error to route around rather
// than a rank-fatal panic. Both *mpi.Comm and *mpinet.Proc satisfy it.
type CodedComm interface {
	Comm
	CheckedComm
}

// CodedExchangeFailpoint, when non-nil, is invoked on every rank between
// the coded send fan-out and the view round. A non-nil return makes the
// rank exit with that error — the chaos suite's seam for killing a rank
// at the exact protocol point the parity is designed to survive. Test
// hook only; set before the transform and clear after.
var CodedExchangeFailpoint func(rank int) error

// DegradedError reports a transform that COMPLETED with the correct,
// bit-exact spectrum after reconstructing one or more dead ranks'
// contributions from parity. It is informational: localOut is fully
// valid when RunDistributed returns it. It is deliberately not a
// Fault — RecoverFault must never swallow it.
type DegradedError struct {
	// ReconstructedRanks lists the dead ranks whose codewords were
	// rebuilt, ascending. Every survivor reports the same set.
	ReconstructedRanks []int
	// Coordinator is the survivor (min rank alive) that pooled shares,
	// decoded, and took over the dead ranks' output blocks.
	Coordinator int
	// ParityBytes counts erasure parity payload this rank sent.
	ParityBytes int64
	// RecoveryBytes counts view/agreement/pooling/refill payload this
	// rank sent.
	RecoveryBytes int64
	// TakenOver maps each dead rank to its recomputed output block.
	// Populated only on the coordinator; GatherDegraded routes it.
	TakenOver map[int][]complex128
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("core: transform completed degraded: rank(s) %v reconstructed from parity by rank %d",
		e.ReconstructedRanks, e.Coordinator)
}

// UnrecoverableLossError reports a coded exchange whose losses exceeded
// the parity budget (or a loss pattern the protocol cannot repair, such
// as a link failure between two live ranks). It is a Fault: the
// transform failed, localOut is invalid.
type UnrecoverableLossError struct {
	DeadRanks []int // dead peers, ascending (empty for live-link losses)
	Parity    int   // the parity budget m that was exceeded
	Cause     error // optional detail (e.g. erasure.ErrTooFewShares)
}

func (e *UnrecoverableLossError) Error() string {
	msg := fmt.Sprintf("core: coded exchange lost rank(s) %v, beyond the m=%d parity budget", e.DeadRanks, e.Parity)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *UnrecoverableLossError) Unwrap() error { return e.Cause }

// CommFault marks the loss as a typed communication fault.
func (e *UnrecoverableLossError) CommFault() {}

// ValidateCoded checks a coded-mode configuration: m parity shares on r
// ranks requires 0 ≤ m ≤ r−1 (each parity share lives on a distinct
// peer) and r+m ≤ 52 (the protocol's receipt masks travel as exact
// integers in a float64 mantissa).
func ValidateCoded(r, m int) error {
	switch {
	case r <= 0:
		return fmt.Errorf("core: rank count must be positive, got %d: %w", r, ErrPlanMismatch)
	case m < 0 || m > r-1:
		return fmt.Errorf("core: coded parity m=%d must be in [0, ranks-1=%d]: %w", m, r-1, ErrPlanMismatch)
	case r+m > 52:
		return fmt.Errorf("core: ranks+parity %d exceeds the 52-share protocol limit: %w", r+m, ErrPlanMismatch)
	}
	return nil
}

// codedExchange is the per-rank state of the coding tail of one
// exchange: the layer RunDistributed adds over the streamed executor
// when WithCoding is set.
type codedExchange struct {
	e    *distExec
	c    CodedComm // e.c, typed for the checked calls
	m    int
	send []complex128 // packed phase-2 buffer; dest t's chunk at [t·chunk, (t+1)·chunk)

	recv     [][]complex128 // recv[src] = C_{src→rank}; nil when lost, until refilled
	parityIn map[int][]complex128
	dead     []bool
	masks    []uint64 // view round: masks[x] bit j ⇔ rank x received C_{j→x}

	// Coordinator-only recovery state.
	decoded   map[int][][]complex128 // dead d → all R data chunks of d's codeword
	columns   map[int][][]complex128 // dead d → pooled survivor chunks C_{s→d}
	poolMasks map[int]uint64         // dead d → union of survivors' held data-share bits

	parityBytes, recoveryBytes int64
}

// newCodedExchange prepares the coding tail; it exists before the
// produce loop so a failed send can already mark its peer dead.
func newCodedExchange(e *distExec, m int) *codedExchange {
	return &codedExchange{
		e: e, c: e.c.(CodedComm), m: m,
		parityIn: make(map[int][]complex128),
		dead:     make([]bool, e.r),
		masks:    make([]uint64, e.r),
	}
}

// column returns source src's contribution to dead rank d's output
// column (coordinator only, after recovery).
func (cx *codedExchange) column(d, src int) []complex128 {
	if cx.dead[src] {
		return cx.decoded[src][d]
	}
	return cx.columns[d][src]
}

func (cx *codedExchange) markDead(rank int) { cx.dead[rank] = true }

// encodeParity encodes this rank's codeword: the R outgoing chunks — the
// unsent self-chunk included, so the exchange's redundancy also covers
// this rank's contribution to its own column — plus m parity shares.
// Coding is on the Float64bits byte image, so any k-of-n subset decodes
// to bit-identical chunks.
func (cx *codedExchange) encodeParity() (*erasure.Code, [][]complex128, error) {
	r, chunk, m := cx.e.r, cx.e.chunk, cx.m
	if m == 0 {
		return nil, nil, nil
	}
	code, err := erasure.New(r, m)
	if err != nil {
		return nil, nil, err
	}
	data := make([][]byte, r)
	for j := 0; j < r; j++ {
		data[j] = erasure.ComplexToBytes(nil, cx.send[j*chunk:(j+1)*chunk])
	}
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, chunk*16)
	}
	if err := code.Encode(data, parity); err != nil {
		return nil, nil, err
	}
	parityOut := make([][]complex128, m)
	for i := range parity {
		parityOut[i], _ = erasure.BytesToComplex(nil, parity[i])
	}
	return code, parityOut, nil
}

// sendParity ships parity share i to rank+1+i; the per-link FIFO places
// these frames after every data tile, so receivers drain the stream
// first.
func (cx *codedExchange) sendParity(parityOut [][]complex128) {
	e, c := cx.e, cx.c
	for i := 0; i < cx.m; i++ {
		s := (e.rank + 1 + i) % e.r
		if err := c.SendChecked(s, tagCodedParity-i, parityOut[i]); err != nil {
			cx.markDead(s)
			continue
		}
		cx.parityBytes += int64(e.chunk) * 16
	}
	e.cnt.CountParityBytes(cx.parityBytes)
}

// run is the coding tail, entered once the produce loop has fanned
// every data tile out: encode this rank's codeword over the packed send
// buffer and ship the parity (per-link FIFO places it behind the last
// data tile), pass the failpoint, wait for the stream to drain, receive
// the parity addressed to this rank, then detect and — when needed and
// possible — recover. On success every survivor's own column is
// complete; a non-nil *DegradedError reports reconstructions.
func (cx *codedExchange) run(send []complex128, in *inbox) (*DegradedError, error) {
	e, c, m := cx.e, cx.c, cx.m
	r, rank, chunk := e.r, e.rank, e.chunk
	cx.send, cx.recv = send, in.recv

	code, parityOut, err := cx.encodeParity()
	if err != nil {
		return nil, err
	}
	cx.sendParity(parityOut)

	if fp := CodedExchangeFailpoint; fp != nil {
		if err := fp(rank); err != nil {
			return nil, err
		}
	}

	// Drain fully before any parity receive: the stream's per-source
	// receivers pop tile frames from the same per-link mailboxes the
	// checked receives use, so the parity frames are safe to receive only
	// once every receiver has delivered its last event.
	if err := in.wait(); err != nil {
		return nil, &UnrecoverableLossError{Parity: m, Cause: err}
	}

	// A source whose stream ended early lost tiles: dead (its receiver may
	// have left tile frames queued, so its parity is unreachable — skip
	// it). Receives are attempted even from peers already marked dead
	// (e.g. because our send to them failed): a gracefully dying peer
	// flushes its frames before the FIN and the transport keeps a dead
	// link's queued frames readable, so the victim's contribution usually
	// survives it; a dead link with nothing queued fails immediately,
	// without a deadline wait.
	for off := 1; off < r; off++ {
		src := (rank + off) % r
		if in.lost[src] {
			cx.recv[src] = nil
			cx.markDead(src)
			continue
		}
		if i := (rank - src - 1 + 2*r) % r; i < m {
			pdata, err := c.RecvCChecked(src, tagCodedParity-i)
			if err != nil {
				cx.markDead(src)
				continue
			}
			if len(pdata) != chunk {
				return nil, &UnrecoverableLossError{Parity: m,
					Cause: fmt.Errorf("malformed parity share from rank %d: %d elements, want %d", src, len(pdata), chunk)}
			}
			cx.parityIn[src] = pdata
		}
	}

	return cx.detect(code)
}

// detect runs the view and agreement rounds over the received state and,
// when losses are within budget, the recovery.
func (cx *codedExchange) detect(code *erasure.Code) (*DegradedError, error) {
	e, m := cx.e, cx.m
	r, rank := e.r, e.rank

	// View round: exchange receipt masks. A peer unreachable here is
	// dead. Masks travel as exact float64 integers (≤ 52 bits, enforced
	// by ValidateCoded).
	myMask := uint64(1) << uint(rank)
	for j := 0; j < r; j++ {
		if cx.recv[j] != nil {
			myMask |= uint64(1) << uint(j)
		}
	}
	cx.masks[rank] = myMask
	cx.exchangeMasks(tagCodedView, myMask, cx.masks)

	// Agreement round: union everyone's observed dead set, so all
	// survivors run the same recovery (or fail the same way). Handles
	// crashes up to the start of the view round; later crashes surface
	// as typed transport errors during recovery.
	myDead := uint64(0)
	for j, d := range cx.dead {
		if d {
			myDead |= uint64(1) << uint(j)
		}
	}
	agreed := make([]uint64, r)
	agreed[rank] = myDead
	cx.exchangeMasks(tagCodedAgree, myDead, agreed)
	deadMask := uint64(0)
	for j, d := range cx.dead {
		if d { // include deaths first observed during the mask rounds
			deadMask |= uint64(1) << uint(j)
		}
		deadMask |= agreed[j]
	}

	var deadList []int
	for j := 0; j < r; j++ {
		if deadMask&(1<<uint(j)) != 0 {
			cx.dead[j] = true
			deadList = append(deadList, j)
		}
	}
	if len(deadList) > 0 { // mask rounds count as recovery traffic only on failure
		e.cnt.CountRecoveryBytes(cx.recoveryBytes)
	}
	if deadMask&(1<<uint(rank)) != 0 {
		return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
			Cause: errors.New("peers declared this rank dead (asymmetric link failure)")}
	}
	// A survivor missing a chunk from another survivor is a live-link
	// loss; the pooling protocol only repairs dead sources, so fail
	// typed rather than recover wrong.
	for x := 0; x < r; x++ {
		if cx.dead[x] {
			continue
		}
		for y := 0; y < r; y++ {
			if !cx.dead[y] && cx.masks[x]&(1<<uint(y)) == 0 {
				return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
					Cause: fmt.Errorf("rank %d lost the chunk from live rank %d (link failure between survivors)", x, y)}
			}
		}
	}
	if len(deadList) == 0 {
		return nil, nil
	}
	if len(deadList) > m {
		return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m}
	}

	deg, err := cx.recover(code, deadList)
	if err != nil {
		return nil, err
	}
	return deg, nil
}

// exchangeMasks runs one all-pairs round of single-value control frames,
// filling out[src] for every live peer and marking unreachable peers
// dead.
func (cx *codedExchange) exchangeMasks(tag int, mine uint64, out []uint64) {
	e, c := cx.e, cx.c
	payload := []complex128{complex(float64(mine), 0)}
	for off := 1; off < e.r; off++ {
		s := (e.rank + off) % e.r
		if cx.dead[s] {
			continue
		}
		if err := c.SendChecked(s, tag, payload); err != nil {
			cx.markDead(s)
			continue
		}
		cx.recoveryBytes += 16
	}
	for off := 1; off < e.r; off++ {
		src := (e.rank + off) % e.r
		if cx.dead[src] {
			continue
		}
		v, err := c.RecvCChecked(src, tag)
		if err != nil || len(v) != 1 {
			cx.markDead(src)
			continue
		}
		out[src] = uint64(real(v[0]))
	}
}

// recover pools the surviving shares of every dead rank's codeword at
// the coordinator (min surviving rank), decodes them, refills survivors
// whose own chunks were lost, and retains the decoded columns for the
// coordinator's output takeover.
func (cx *codedExchange) recover(code *erasure.Code, deadList []int) (*DegradedError, error) {
	e, c, m := cx.e, cx.c, cx.m
	r, rank, chunk := e.r, e.rank, e.chunk

	coord := -1
	for j := 0; j < r; j++ {
		if !cx.dead[j] {
			coord = j
			break
		}
	}
	cx.decoded = make(map[int][][]complex128)
	cx.columns = make(map[int][][]complex128)
	base := cx.recoveryBytes // mask-round bytes, already booked by detect

	var decodeErr error
	for _, d := range deadList {
		if rank != coord {
			if err := cx.sendPool(coord, d); err != nil {
				return nil, err
			}
			continue
		}
		if decodeErr != nil {
			continue // first failure decides; remaining pool frames stay queued
		}
		if err := cx.poolAndDecode(code, d, coord); err != nil {
			decodeErr = err
			continue
		}
		e.cnt.CountReconstruction()
	}
	// Outcome round: the coordinator tells every survivor whether the
	// decodes succeeded, so an infeasible recovery fails typed on every
	// rank (and no survivor blocks on a refill that will never come).
	var lateErr error
	if rank == coord {
		verdict := []complex128{1}
		if decodeErr != nil {
			verdict[0] = 0
		}
		for s := 0; s < r; s++ {
			if s == coord || cx.dead[s] {
				continue
			}
			if err := c.SendChecked(s, tagCodedOutcome, verdict); err != nil {
				cx.markDead(s) // died during recovery; skip its refills
				if lateErr == nil {
					lateErr = err
				}
				continue
			}
			cx.recoveryBytes += 16
		}
		if decodeErr != nil {
			return nil, decodeErr
		}
	} else {
		v, err := c.RecvCChecked(coord, tagCodedOutcome)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 || real(v[0]) == 0 {
			return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
				Cause: errors.New("coordinator could not reconstruct the lost codewords")}
		}
	}
	// Refills, after all decodes: the coordinator returns each survivor
	// the chunks it was missing (per the pooled held-masks); survivors
	// block only on the chunks they know they lack.
	for _, d := range deadList {
		if rank == coord {
			for s := 0; s < r; s++ {
				if s == coord || cx.dead[s] || cx.heldBy(s, d) {
					continue
				}
				if err := c.SendChecked(s, tagCodedRefill-d, cx.decoded[d][s]); err != nil {
					return nil, err
				}
				cx.recoveryBytes += int64(chunk) * 16
			}
			continue
		}
		if cx.recv[d] == nil {
			data, err := c.RecvCChecked(coord, tagCodedRefill-d)
			if err != nil {
				return nil, err
			}
			if len(data) != chunk {
				return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
					Cause: fmt.Errorf("malformed refill for rank %d: %d elements, want %d", d, len(data), chunk)}
			}
			cx.recv[d] = data
		}
	}
	e.cnt.CountRecoveryBytes(cx.recoveryBytes - base)
	if lateErr != nil { // a survivor died mid-recovery; its column is gone
		return nil, lateErr
	}
	deg := &DegradedError{
		ReconstructedRanks: append([]int(nil), deadList...),
		Coordinator:        coord,
		ParityBytes:        cx.parityBytes,
		RecoveryBytes:      cx.recoveryBytes,
		TakenOver:          map[int][]complex128{},
	}
	sort.Ints(deg.ReconstructedRanks)
	return deg, nil
}

// heldBy reports whether survivor s received dead rank d's chunk
// directly (known to the coordinator from s's pooled held-mask).
func (cx *codedExchange) heldBy(s, d int) bool {
	return cx.poolMasks[d]&(1<<uint(s)) != 0
}

// sendPool ships this survivor's shares of dead rank d's codeword to
// the coordinator: a held-mask header, the held shares in ascending
// share-index order, then this rank's own column chunk C_{rank→d}.
func (cx *codedExchange) sendPool(coord, d int) error {
	e, chunk := cx.e, cx.e.chunk
	r, rank := e.r, e.rank
	held := uint64(0)
	frame := make([]complex128, 0, 1+2*chunk)
	frame = append(frame, 0) // mask patched below
	if cx.recv[d] != nil {   // data share index = this rank
		held |= 1 << uint(rank)
		frame = append(frame, cx.recv[d]...)
	}
	if p, ok := cx.parityIn[d]; ok { // parity share index = r + i
		i := (rank - d - 1 + 2*r) % r
		held |= 1 << uint(r+i)
		frame = append(frame, p...)
	}
	frame = append(frame, cx.send[d*chunk:(d+1)*chunk]...)
	frame[0] = complex(float64(held), 0)
	if err := cx.c.SendChecked(coord, tagCodedPool-d, frame); err != nil {
		return err
	}
	cx.recoveryBytes += int64(len(frame)) * 16
	return nil
}

// poolAndDecode (coordinator) gathers every survivor's pool frame for
// dead rank d, assembles the share set, reconstructs the codeword, and
// stores the decoded data chunks and the pooled column.
func (cx *codedExchange) poolAndDecode(code *erasure.Code, d, coord int) error {
	e, c, m := cx.e, cx.c, cx.m
	r, chunk := e.r, e.chunk
	if cx.poolMasks == nil {
		cx.poolMasks = make(map[int]uint64)
	}
	shares := make([][]byte, r+m)
	column := make([][]complex128, r)
	heldUnion := uint64(0)

	addShare := func(idx int, data []complex128) {
		shares[idx] = erasure.ComplexToBytes(nil, data)
	}
	// The coordinator's own holdings.
	if cx.recv[d] != nil {
		addShare(coord, cx.recv[d])
		heldUnion |= 1 << uint(coord)
	}
	if p, ok := cx.parityIn[d]; ok {
		i := (coord - d - 1 + 2*r) % r
		addShare(r+i, p)
	}
	column[coord] = cx.send[d*chunk : (d+1)*chunk]

	for s := 0; s < r; s++ {
		if s == coord || cx.dead[s] {
			continue
		}
		frame, err := c.RecvCChecked(s, tagCodedPool-d)
		if err != nil {
			return err
		}
		if len(frame) < 1+chunk {
			return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
				Cause: fmt.Errorf("malformed pool frame from rank %d: %d elements", s, len(frame))}
		}
		held := uint64(real(frame[0]))
		off := 1
		for idx := 0; idx < r+m; idx++ {
			if held&(1<<uint(idx)) == 0 {
				continue
			}
			if off+chunk > len(frame) {
				return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
					Cause: fmt.Errorf("truncated pool frame from rank %d", s)}
			}
			addShare(idx, frame[off:off+chunk])
			off += chunk
		}
		if off+chunk != len(frame) {
			return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
				Cause: fmt.Errorf("pool frame from rank %d has %d trailing elements, want %d", s, len(frame)-off, chunk)}
		}
		column[s] = frame[off : off+chunk]
		heldUnion |= held & ((1 << uint(r)) - 1)
	}
	cx.poolMasks[d] = heldUnion

	present := 0
	for _, sh := range shares {
		if sh != nil {
			present++
		}
	}
	if present < r {
		return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
			Cause: fmt.Errorf("%w: %d of %d shares survive for rank %d's codeword", erasure.ErrTooFewShares, present, r, d)}
	}
	if err := code.Reconstruct(shares); err != nil {
		return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m, Cause: err}
	}
	decoded := make([][]complex128, r)
	for j := 0; j < r; j++ {
		dc, err := erasure.BytesToComplex(nil, shares[j])
		if err != nil {
			return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m, Cause: err}
		}
		decoded[j] = dc
	}
	cx.decoded[d] = decoded
	cx.columns[d] = column
	// The coordinator's own column chunk from d may also have been lost.
	if cx.recv[d] == nil {
		cx.recv[d] = decoded[coord]
	}
	return nil
}

// GatherDegraded collects the full spectrum after a coded transform.
// With deg == nil it is a guarded plain Gather at root. After a
// degraded run, survivors route around the dead ranks: the gather lands
// at root if root survived, else at the recovery coordinator, and the
// coordinator contributes the taken-over blocks. It returns the full
// output (nil on ranks other than the effective root), the effective
// root's rank, and any typed transport failure.
func GatherDegraded(c CodedComm, root int, own []complex128, deg *DegradedError) (full []complex128, at int, err error) {
	if deg == nil {
		err = GuardComm(func() { full = c.Gather(root, own) })
		return full, root, err
	}
	r, rank, nLocal := c.Size(), c.Rank(), len(own)
	dead := make(map[int]bool, len(deg.ReconstructedRanks))
	for _, d := range deg.ReconstructedRanks {
		dead[d] = true
	}
	at = root
	if dead[root] {
		at = deg.Coordinator
	}
	if rank != at {
		if err := c.SendChecked(at, tagCodedGather, own); err != nil {
			return nil, at, err
		}
		if rank == deg.Coordinator {
			for _, d := range deg.ReconstructedRanks {
				if err := c.SendChecked(at, tagCodedGather-1-d, deg.TakenOver[d]); err != nil {
					return nil, at, err
				}
			}
		}
		return nil, at, nil
	}
	full = make([]complex128, r*nLocal)
	copy(full[rank*nLocal:], own)
	for s := 0; s < r; s++ {
		if s == rank || dead[s] {
			continue
		}
		data, err := c.RecvCChecked(s, tagCodedGather)
		if err != nil {
			return nil, at, err
		}
		if len(data) != nLocal {
			return nil, at, &UnrecoverableLossError{Parity: -1,
				Cause: fmt.Errorf("degraded gather: rank %d sent %d elements, want %d", s, len(data), nLocal)}
		}
		copy(full[s*nLocal:], data)
	}
	for _, d := range deg.ReconstructedRanks {
		var block []complex128
		if rank == deg.Coordinator {
			block = deg.TakenOver[d]
		} else {
			var err error
			block, err = c.RecvCChecked(deg.Coordinator, tagCodedGather-1-d)
			if err != nil {
				return nil, at, err
			}
		}
		if len(block) != nLocal {
			return nil, at, &UnrecoverableLossError{Parity: -1,
				Cause: fmt.Errorf("degraded gather: taken-over block for rank %d has %d elements, want %d", d, len(block), nLocal)}
		}
		copy(full[d*nLocal:], block)
	}
	return full, at, nil
}
