// Package node implements the replica state machine of the fast-consistency
// protocol — the paper's §2.1 algorithm, both parts:
//
//	Part 1 (weak consistency with demand-ordered selection): at each session
//	time the replica picks a partner via its policy.Selector and runs the
//	summary-vector anti-entropy exchange of steps 1–12.
//
//	Part 2 (fast update): whenever the replica acquires writes it did not
//	have — from a local client or from any protocol exchange — it
//	immediately hands them to its highest-demand neighbour(s), producing
//	the valley-flooding chains of §2. A gain that fits one network frame is
//	pushed as the payload itself, one message per chain link; a larger one
//	is offered ids first, steps 13–18 (see fastOffers).
//
// The node is transport-agnostic ("sans I/O"): every input is an explicit
// method call carrying the current time, and every output is a slice of
// protocol.Envelope for the caller to deliver. The Monte-Carlo simulator
// (internal/mc) drives nodes under a discrete-event clock; the live runtime
// (internal/runtime) drives the same code with goroutines and real
// transports. Node methods are not safe for concurrent use; each driver
// serialises access.
package node

import (
	"fmt"
	"math/rand"

	"repro/internal/demand"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wlog"
)

// NodeID aliases the replica identifier.
type NodeID = vclock.NodeID

// Config parametrises a replica.
type Config struct {
	// ID is this replica's identity.
	ID NodeID
	// Neighbors are the replicas this node may hold sessions with.
	Neighbors []NodeID
	// Selector picks anti-entropy partners. Required.
	Selector policy.Selector
	// FastPush enables the §2.1 part-two fast-update chains.
	FastPush bool
	// FanOut is how many distinct highest-demand neighbours each fast
	// update (pushed or offered) targets. The paper pushes to one; values
	// > 1 are an extension evaluated in the ablation experiments. Defaults
	// to 1.
	FanOut int
	// GradientOnly, when set, suppresses fast updates to neighbours whose
	// recorded demand does not exceed this node's own demand — a strict
	// "downhill only" variant used in ablations. The paper's algorithm is
	// unconditional (GradientOnly = false).
	GradientOnly bool
	// Demand reports this node's own demand at a given time (requests per
	// unit time from local clients). Required.
	Demand func(now float64) float64
	// MaxBatch bounds entries per UpdateBatch; 0 means unlimited. Large
	// sessions split across batches, with Final set on the last.
	MaxBatch int
	// Journal, when non-nil, receives every state mutation for durable
	// storage (see the Journal interface). Drivers that recover a replica
	// from disk leave this nil, replay, then call AttachJournal, so replay
	// never re-journals itself.
	Journal Journal
	// Observer, when non-nil, receives replication lifecycle events for
	// measurement (see the Observer interface). Unlike Journal it is safe
	// to pass at construction even for recovered replicas: the recovery
	// paths (Bootstrap, Replay) never fire it.
	Observer Observer
}

// Journal is the durability hook: a sink that persists every mutation of
// the replica's write log and store, in the order the replica applies them.
// The node invokes it under whatever synchronisation the driver already
// holds for the node itself (node methods are single-threaded per replica),
// so implementations see mutations in a total order. Implementations buffer
// internally; the driver decides when the journal must reach stable storage
// (e.g. the runtime fsyncs once per group-committed client batch, before
// acknowledging it).
type Journal interface {
	// JournalEntries records entries that just entered the write log, in
	// insertion order: local client writes and entries gained from peers.
	JournalEntries(entries []wlog.Entry)
	// JournalAdopt records a full-state adoption: a protocol snapshot or
	// peer bootstrap (summary non-nil) or a content-only absorption such as
	// a shard handoff (summary nil). clock is the replica's Lamport clock
	// after the adoption.
	JournalAdopt(summary *vclock.Summary, items []store.Item, clock uint64)
}

// Observer is the measurement hook: it sees entries the moment they enter
// the write log through live traffic — local client writes when committed,
// remote entries when absorbed — so an observability layer can stamp
// writes at their origin and measure propagation lag at every replica. The
// node invokes it under the driver's existing synchronisation (node
// methods are single-threaded per replica); implementations must be cheap
// and must not call back into the node. Recovery paths (Bootstrap, Replay)
// and content-level absorption (AbsorbItems) never fire it: replayed
// entries are old news, and handoff items carry no per-entry identity.
type Observer interface {
	// ObserveCommitted reports local client writes that just committed, in
	// log order.
	ObserveCommitted(entries []wlog.Entry)
	// ObserveAbsorbed reports entries just gained from peers (anti-entropy
	// batches, fast-update payloads, never duplicates), in log order.
	ObserveAbsorbed(entries []wlog.Entry)
}

// Stats counts protocol activity for one replica.
type Stats struct {
	SessionsInitiated  uint64 // timer sessions started (StartSession)
	SessionsReceived   uint64 // session requests answered
	EntriesSent        uint64 // entries shipped in UpdateBatches, pull answers included
	EntriesReceived    uint64 // entries received in UpdateBatches, duplicates included
	FastOffersSent     uint64 // ids-first offers (gains over one frame)
	FastPushesSent     uint64 // frame-sized gains pushed as payloads, no offer
	FastOffersReceived uint64 // ids-first offers received
	FastOffersAccepted uint64 // offers we answered YES to
	FastOffersDeclined uint64 // offers we answered NO to
	FastEntriesSent    uint64 // entries sent in FastPayloads, pushed or asked for
	FastEntriesGained  uint64 // entries first learned through fast update
	GapDrops           uint64 // fast-payload entries dropped for gaps
	AdvertsSent        uint64 // demand adverts sent, one per neighbour per tick
	AdvertPulls        uint64 // id-0 summaries sent: an advert named writes neither held nor expected by chain
	MessagesHandled    uint64 // envelopes passed to HandleMessage
	SnapshotsSent      uint64 // full-state transfers sent (truncation recovery)
	SnapshotsReceived  uint64 // full-state transfers adopted
	ClientWrites       uint64 // local client writes committed
	EntriesAbsorbed    uint64 // entries gained from peers (new, non-duplicate)
	DuplicateDrops     uint64 // received entries already covered (re-delivery)
}

// Node is one replica.
type Node struct {
	cfg      Config
	log      *wlog.Log
	st       *store.Store
	table    *demand.Table
	selector policy.Selector
	journal  Journal
	observer Observer
	lamport  uint64

	nextSession uint64
	// initiated tracks the session this node last started with each partner
	// (partner -> sessionID): one whose tail was lost is replaced, not leaked.
	initiated map[NodeID]uint64
	// accepted tracks the session this node is responding to, per partner.
	accepted map[NodeID]uint64
	// advertised holds the summary each neighbour's latest advert carried —
	// the sender's read-only clone, one pointer per demand-table row.
	advertised map[NodeID]*vclock.Summary
	// chained is the chain memory, one bit per origin: its writes last reached
	// this node by fast update (set) or by an anti-entropy batch (clear).
	chained map[NodeID]bool
	// asked joins the log's summary with every advert a pull was sent against
	// since this node's own tick: what is held or already asked for.
	asked vclock.Summary

	// offerSkip is the reusable fast-offer exclusion buffer; node methods
	// are single-threaded per replica, so one buffer per node suffices.
	offerSkip []NodeID
	// writeScratch is the reusable group-commit staging buffer (same
	// single-threaded argument).
	writeScratch []wlog.LocalWrite

	stats Stats
}

// New builds a replica from cfg.
func New(cfg Config) *Node {
	if cfg.Selector == nil {
		panic("node: Config.Selector is required")
	}
	if cfg.Demand == nil {
		panic("node: Config.Demand is required")
	}
	if cfg.FanOut <= 0 {
		cfg.FanOut = 1
	}
	return &Node{
		cfg:        cfg,
		log:        wlog.New(),
		st:         store.New(),
		table:      demand.NewTable(cfg.Neighbors),
		selector:   cfg.Selector,
		journal:    cfg.Journal,
		observer:   cfg.Observer,
		initiated:  make(map[NodeID]uint64),
		accepted:   make(map[NodeID]uint64),
		advertised: make(map[NodeID]*vclock.Summary, len(cfg.Neighbors)),
		chained:    make(map[NodeID]bool),
	}
}

// AttachJournal installs (or replaces) the durability hook after
// construction. Drivers recovering a replica from disk build the node with
// a nil journal, Replay the recovered state, and attach the journal only
// then — replayed mutations are already on disk and must not re-journal.
func (n *Node) AttachJournal(j Journal) { n.journal = j }

// ID returns the replica's identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Summary returns a copy of the replica's summary vector.
func (n *Node) Summary() *vclock.Summary { return n.log.Summary() }

// SummaryTotal returns the number of writes the replica covers, without
// cloning the summary vector.
func (n *Node) SummaryTotal() uint64 { return n.log.SummaryTotal() }

// CompareSummary returns the lattice order between the replica's summary and
// other, without cloning the vector.
func (n *Node) CompareSummary(other *vclock.Summary) vclock.Ordering {
	return n.log.CompareSummary(other)
}

// Covers reports whether the replica has received the write named by ts.
func (n *Node) Covers(ts vclock.Timestamp) bool { return n.log.Covers(ts) }

// Clock returns the replica's Lamport clock — the incarnation counter a
// restart must carry forward so the reused identity never reissues
// timestamps.
func (n *Node) Clock() uint64 { return n.lamport }

// Bootstrap seeds a freshly created replica from a consistent state image
// (summary plus the store contents it covers) before the replica serves
// traffic — crash recovery from peers, the content-level analogue of
// onSnapshot. The summary is adopted into the write log (the covered ranges
// are marked truncated locally, so partners that need them entry-wise fall
// back to full-state transfer), the items merge via LWW, and the Lamport
// clock advances past every imported write and minClock.
//
// Callers must fold the replica's own pre-crash write head into snap:
// without it, a reused identity restarts its sequence numbers from the
// adopted coverage and reissues timestamps its peers treat as duplicates —
// new writes silently dropped, old writes masked forever.
func (n *Node) Bootstrap(snap *vclock.Summary, items []store.Item, minClock uint64) {
	n.log.Adopt(snap)
	n.st.ApplySnapshot(items)
	for _, item := range items {
		if item.Clock > n.lamport {
			n.lamport = item.Clock
		}
	}
	if minClock > n.lamport {
		n.lamport = minClock
	}
	if n.journal != nil {
		n.journal.JournalAdopt(snap, items, n.lamport)
	}
}

// Store exposes the replica's content store (for client reads).
func (n *Node) Store() *store.Store { return n.st }

// Log exposes the replica's write log (read-only use).
func (n *Node) Log() *wlog.Log { return n.log }

// Table exposes the neighbour demand table.
func (n *Node) Table() *demand.Table { return n.table }

// Stats returns a snapshot of the protocol counters.
func (n *Node) Stats() Stats { return n.stats }

// OwnDemand returns the node's demand at time now.
func (n *Node) OwnDemand(now float64) float64 { return n.cfg.Demand(now) }

// noteDemand folds a piggybacked demand advertisement into the table.
func (n *Node) noteDemand(from NodeID, d, now float64) {
	n.table.Update(from, d, now)
}

// ClientWrite accepts a local client write (the paper's "write operation in
// a server", §2), appends it to the log, applies it to the store, and — with
// FastPush — immediately hands it to the highest-demand neighbour(s).
func (n *Node) ClientWrite(now float64, key string, value []byte) (wlog.Entry, []protocol.Envelope) {
	n.lamport++
	e := n.log.Append(n.cfg.ID, key, value, n.lamport)
	n.st.Apply(e)
	if n.journal != nil {
		n.journal.JournalEntries([]wlog.Entry{e})
	}
	n.stats.ClientWrites++
	if n.observer != nil {
		n.observer.ObserveCommitted([]wlog.Entry{e})
	}
	out := n.fastOffers(now, []wlog.Entry{e}, 0, n.cfg.ID)
	return e, out
}

// WriteOp is one client write queued for a group commit.
type WriteOp struct {
	Key   string // the key written
	Value []byte // the value; the write log copies it
}

// ClientWriteBatch folds a batch of concurrent local client writes into the
// node in one step: sequence numbers and Lamport clocks are assigned in
// batch order, the write log takes its lock once for the whole batch, and —
// with FastPush — the batch triggers a single merged fast-update fan-out
// carrying every new write, instead of one chain per write. It returns the
// committed entries in input order plus the outbound envelopes.
//
// Semantically a batch is indistinguishable from calling ClientWrite once
// per op in the same order; it only amortises the locking and fan-out.
func (n *Node) ClientWriteBatch(now float64, ops []WriteOp) ([]wlog.Entry, []protocol.Envelope) {
	if len(ops) == 0 {
		return nil, nil
	}
	writes := n.writeScratch[:0]
	for _, op := range ops {
		n.lamport++
		writes = append(writes, wlog.LocalWrite{Key: op.Key, Value: op.Value, Clock: n.lamport})
	}
	entries := n.log.AppendBatch(n.cfg.ID, writes)
	// AppendBatch copied the values; drop the caller's buffers so the
	// retained scratch never pins client memory.
	for i := range writes {
		writes[i].Value = nil
	}
	n.writeScratch = writes[:0]
	for _, e := range entries {
		n.st.Apply(e)
	}
	if n.journal != nil {
		n.journal.JournalEntries(entries)
	}
	n.stats.ClientWrites += uint64(len(entries))
	if n.observer != nil {
		n.observer.ObserveCommitted(entries)
	}
	out := n.fastOffers(now, entries, 0, n.cfg.ID)
	return entries, out
}

// StartSession begins an anti-entropy session with the partner chosen by the
// policy (steps 1–2). It returns the outbound request, or nil when no
// partner is eligible.
func (n *Node) StartSession(now float64, r *rand.Rand) []protocol.Envelope {
	partner, ok := n.selector.Next(now, n.table, r)
	if !ok {
		return nil
	}
	n.nextSession++
	id := uint64(n.cfg.ID)<<32 | n.nextSession
	n.initiated[partner] = id
	n.stats.SessionsInitiated++
	return []protocol.Envelope{{
		From: n.cfg.ID,
		To:   partner,
		Msg:  protocol.SessionRequest{SessionID: id, Demand: n.OwnDemand(now)},
	}}
}

// AdvertiseDemand emits the periodic §4 demand advertisement to every
// neighbour, with the summary vector attached: one clone per tick, shared by
// the tick's envelopes and never mutated after (see onDemandAdvert). The tick
// also forgets what the node asked for since the last one, so a pull that drew
// no answer (lost, or over a frame by then) is sent again within one interval.
func (n *Node) AdvertiseDemand(now float64) []protocol.Envelope {
	n.asked = vclock.Summary{}
	out := make([]protocol.Envelope, 0, len(n.cfg.Neighbors))
	var adv protocol.Message = protocol.DemandAdvert{Demand: n.OwnDemand(now), Summary: n.log.Summary()}
	for _, nb := range n.cfg.Neighbors {
		out = append(out, protocol.Envelope{From: n.cfg.ID, To: nb, Msg: adv})
	}
	n.stats.AdvertsSent += uint64(len(out))
	return out
}

// HandleMessage processes one inbound envelope and returns the outbound
// envelopes it generates.
func (n *Node) HandleMessage(now float64, env protocol.Envelope) []protocol.Envelope {
	if env.To != n.cfg.ID {
		panic(fmt.Sprintf("node %v: misrouted envelope %v", n.cfg.ID, env))
	}
	n.stats.MessagesHandled++
	switch m := env.Msg.(type) {
	case protocol.SessionRequest:
		return n.onSessionRequest(now, env.From, m)
	case protocol.SummaryMsg:
		return n.onSummary(now, env.From, m)
	case protocol.UpdateBatch:
		return n.onUpdateBatch(now, env.From, m)
	case protocol.FastOffer:
		return n.onFastOffer(now, env.From, m)
	case protocol.FastReply:
		return n.onFastReply(now, env.From, m)
	case protocol.FastPayload:
		return n.onFastPayload(now, env.From, m)
	case protocol.DemandAdvert:
		return n.onDemandAdvert(now, env.From, m)
	case protocol.Snapshot:
		return n.onSnapshot(now, env.From, m)
	default:
		panic(fmt.Sprintf("node %v: unknown message %T", n.cfg.ID, env.Msg))
	}
}

// onDemandAdvert notes the neighbour's demand and keeps the summary it
// advertised — steps 3–4 of a session, unsolicited. Where that summary names
// writes the log lacks, the node answers as an initiator would (step 6) under
// session id 0, which no timer session has, and the neighbour's responder half
// (onSummary → batchesFor) ships the difference if it fits one frame. Whether
// a write it lacks is merely in flight the node tells from how that origin's
// writes have been reaching it (chained): if by anti-entropy, no chain is
// coming and it pulls at once; if by fast update, it pulls only a gap that the
// neighbour's previous advert already named. One ask per tick: a gap another
// pull since the node's own tick was sent against (asked) draws no second
// one, and a gap too long for any frame (maxFrameEntries) none at all.
func (n *Node) onDemandAdvert(now float64, from NodeID, m protocol.DemandAdvert) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	if m.Summary == nil {
		return nil
	}
	prev := n.advertised[from]
	n.advertised[from] = m.Summary
	if lag := n.log.LagBehind(m.Summary); lag == 0 || lag > maxFrameEntries {
		return nil
	}
	n.log.MergeSummaryInto(&n.asked)
	pull := false
	m.Summary.ForEach(func(origin NodeID, seq uint64) {
		if have := n.asked.Get(origin); seq > have && (!n.chained[origin] || prev.Get(origin) > have) {
			pull = true
		}
	})
	if !pull {
		return nil
	}
	n.asked.Merge(m.Summary)
	n.stats.AdvertPulls++
	return []protocol.Envelope{n.summaryFor(now, from, 0)}
}

// summaryFor is this node's summary vector, addressed to partner under
// session id (steps 4 and 6).
func (n *Node) summaryFor(now float64, partner NodeID, id uint64) protocol.Envelope {
	return protocol.Envelope{
		From: n.cfg.ID,
		To:   partner,
		Msg:  protocol.SummaryMsg{SessionID: id, Summary: n.log.Summary(), Demand: n.OwnDemand(now)},
	}
}

// onSessionRequest is step 3–4: the responder sends its summary vector.
func (n *Node) onSessionRequest(now float64, from NodeID, m protocol.SessionRequest) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	n.accepted[from] = m.SessionID
	n.stats.SessionsReceived++
	return []protocol.Envelope{n.summaryFor(now, from, m.SessionID)}
}

// onSummary handles a partner's summary vector.
//
// Initiator path (steps 5–8): on the responder's summary, send back our own
// summary plus every entry the responder is missing.
//
// Responder path (steps 9–11): on the initiator's summary, send every entry
// the initiator is missing; this completes the responder's half. So does a
// late reply to a replaced session, and the id-0 answer to an advert.
func (n *Node) onSummary(now float64, from NodeID, m protocol.SummaryMsg) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	var out []protocol.Envelope
	if id, ok := n.initiated[from]; ok && id == m.SessionID {
		out = append(out, n.summaryFor(now, from, m.SessionID))
	}
	out = append(out, n.batchesFor(now, from, m.SessionID, m.Summary)...)
	return out
}

// batchesFor builds the UpdateBatch messages carrying what partner lacks,
// or a full-state Snapshot when log truncation has discarded entries the
// partner still needs (the Bayou recovery path). An advert pull (id 0) has no
// session to close, so nothing missing sends nothing, and it is a frame-sized
// repair: a backlog over one frame, or a Snapshot, per neighbour per tick is
// not its to draw — bulk catch-up stays with the timer session. A backlog of
// more entries than any frame holds is turned away on the count alone, before
// the list is built: a saturated group's adverts each name about a thousand.
func (n *Node) batchesFor(now float64, partner NodeID, sessionID uint64, theirs *vclock.Summary) []protocol.Envelope {
	if sessionID == 0 {
		// Writes held here and not there: sum of max(0, ours - theirs).
		ahead := n.log.SummaryTotal() + n.log.LagBehind(theirs) - theirs.Total()
		if ahead == 0 || ahead > maxFrameEntries {
			return nil
		}
	}
	missing, err := n.log.MissingGiven(theirs)
	if sessionID == 0 && (err != nil || !fitsFrame(missing)) {
		return nil
	}
	if err != nil {
		n.stats.SnapshotsSent++
		return []protocol.Envelope{{
			From: n.cfg.ID,
			To:   partner,
			Msg: protocol.Snapshot{
				SessionID: sessionID,
				Summary:   n.log.Summary(),
				Items:     n.st.Snapshot(),
				Demand:    n.OwnDemand(now),
			},
		}}
	}
	n.stats.EntriesSent += uint64(len(missing))
	d := n.OwnDemand(now)
	batch := n.cfg.MaxBatch
	if batch <= 0 || batch > len(missing) {
		if len(missing) == 0 {
			return []protocol.Envelope{{
				From: n.cfg.ID,
				To:   partner,
				Msg:  protocol.UpdateBatch{SessionID: sessionID, Final: true, Demand: d},
			}}
		}
		batch = len(missing)
	}
	var out []protocol.Envelope
	for off := 0; off < len(missing); off += batch {
		end := off + batch
		if end > len(missing) {
			end = len(missing)
		}
		out = append(out, protocol.Envelope{
			From: n.cfg.ID,
			To:   partner,
			Msg: protocol.UpdateBatch{
				SessionID: sessionID,
				Entries:   missing[off:end],
				Final:     end == len(missing),
				Demand:    d,
			},
		})
	}
	return out
}

// onUpdateBatch is step 12: apply the entries the partner sent; on the final
// batch, close the session. Newly gained entries start fast-update chains.
func (n *Node) onUpdateBatch(now float64, from NodeID, m protocol.UpdateBatch) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	gained := n.absorb(m.Entries)
	n.noteArrival(gained, false)
	n.stats.EntriesReceived += uint64(len(m.Entries))
	if m.Final {
		n.closeSession(from, m.SessionID)
	}
	return n.fastOffers(now, gained, 0, from)
}

// absorb applies entries to the log and store, returning those that were
// actually new. Entries are applied in (origin, seq) order so batches never
// self-gap; MissingGiven already guarantees that order, so the common case
// skips the sort and hands the batch straight to the log under one lock.
func (n *Node) absorb(entries []wlog.Entry) []wlog.Entry {
	if len(entries) == 0 {
		return nil
	}
	if !wlog.Sorted(entries) {
		sorted := append([]wlog.Entry(nil), entries...)
		wlog.SortByTS(sorted)
		entries = sorted
	}
	gained, gaps := n.log.AddBatch(entries)
	n.stats.GapDrops += uint64(gaps)
	n.stats.EntriesAbsorbed += uint64(len(gained))
	n.stats.DuplicateDrops += uint64(len(entries) - len(gained) - gaps)
	for _, e := range gained {
		if e.Clock > n.lamport {
			n.lamport = e.Clock
		}
		n.st.Apply(e)
	}
	if n.journal != nil && len(gained) > 0 {
		n.journal.JournalEntries(gained)
	}
	if n.observer != nil && len(gained) > 0 {
		n.observer.ObserveAbsorbed(gained)
	}
	return gained
}

// noteArrival records in the chain memory how the origins of gained, entries
// new to the log, just reached this node. Duplicates and gap drops never get
// here: they say nothing about which path delivers.
func (n *Node) noteArrival(gained []wlog.Entry, byChain bool) {
	for i, e := range gained {
		if i == 0 || e.TS.Node != gained[i-1].TS.Node {
			n.chained[e.TS.Node] = byChain
		}
	}
}

// Replay folds recovered write-log entries into the replica — the disk
// recovery path. Unlike absorb it starts no fast updates (the entries are
// old news to the network) and, because drivers attach the journal only
// after replay, nothing is re-journaled. Entries are applied in (origin,
// seq) order; those already covered are skipped. It returns how many
// entries were new.
func (n *Node) Replay(entries []wlog.Entry) int {
	if len(entries) == 0 {
		return 0
	}
	if !wlog.Sorted(entries) {
		sorted := append([]wlog.Entry(nil), entries...)
		wlog.SortByTS(sorted)
		entries = sorted
	}
	gained, _ := n.log.AddBatch(entries)
	for _, e := range gained {
		if e.Clock > n.lamport {
			n.lamport = e.Clock
		}
		n.st.Apply(e)
	}
	return len(gained)
}

// framePayload is the most entry bytes a fast update pushes without asking
// first: about what fits, with the envelope header, in one 1,500-byte
// Ethernet frame under IP and TCP headers. Up to there the ids-first
// exchange saves no packet — the payload costs the one frame the offer would
// have — and only adds two link delays; above it the paper's bandwidth
// argument for asking before sending is kept. The value is that argument's,
// not a measured optimum: the benchmark writes 128-byte values, so it runs
// the push side only, and nothing it runs charges for bytes (see ROADMAP).
const framePayload = 1400

// maxFrameEntries is the most entries fitsFrame can accept, whatever their
// sizes: it charges each at least 10 bytes.
const maxFrameEntries = framePayload / 10

// fitsFrame reports whether entries take at most framePayload bytes, counted
// as the write log counts (keys + values) plus about 10 each for what the
// encoding adds: id, two lengths and the clock as varints.
func fitsFrame(entries []wlog.Entry) bool {
	size := 0
	for _, e := range entries {
		if size += len(e.Key) + len(e.Value) + 10; size > framePayload {
			return false
		}
	}
	return true
}

// fastOffers starts or continues a fast-update chain: hand newly gained
// writes to the FanOut highest-demand neighbours, excluding the replica they
// came from. A gain that fits one frame goes as the FastPayload itself, so a
// chain link is one message and a receiver that gains nothing ends the chain
// as a NO would; a larger gain is offered ids only (step 13) and the payload
// follows a YES.
func (n *Node) fastOffers(now float64, gained []wlog.Entry, hops uint32, source NodeID) []protocol.Envelope {
	if !n.cfg.FastPush || len(gained) == 0 {
		return nil
	}
	skip := append(n.offerSkip[:0], source, n.cfg.ID)
	own := n.OwnDemand(now)
	push := fitsFrame(gained)
	var ids []vclock.Timestamp
	var out []protocol.Envelope
	for i := 0; i < n.cfg.FanOut; i++ {
		best, ok := n.table.BestExcept(skip)
		if !ok {
			break
		}
		skip = append(skip, best.Node)
		if n.cfg.GradientOnly && best.Demand <= own {
			continue
		}
		env := protocol.Envelope{From: n.cfg.ID, To: best.Node}
		if push {
			env.Msg = protocol.FastPayload{Entries: gained, Demand: own, Hops: hops}
			n.stats.FastPushesSent++
			n.stats.FastEntriesSent += uint64(len(gained))
		} else {
			if ids == nil {
				ids = make([]vclock.Timestamp, len(gained))
				for j, e := range gained {
					ids[j] = e.TS
				}
			}
			env.Msg = protocol.FastOffer{IDs: ids, Demand: own, Hops: hops}
			n.stats.FastOffersSent++
		}
		out = append(out, env)
	}
	n.offerSkip = skip
	return out
}

// onFastOffer is steps 14–15: answer YES with the subset of offered ids we
// still need, or NO when we have them all.
func (n *Node) onFastOffer(now float64, from NodeID, m protocol.FastOffer) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	n.stats.FastOffersReceived++
	var wanted []vclock.Timestamp
	for _, ts := range m.IDs {
		if !n.log.Covers(ts) {
			wanted = append(wanted, ts)
		}
	}
	reply := protocol.FastReply{
		Accept: len(wanted) > 0,
		Wanted: wanted,
		Demand: n.OwnDemand(now),
		Hops:   m.Hops,
	}
	if reply.Accept {
		n.stats.FastOffersAccepted++
	} else {
		n.stats.FastOffersDeclined++
	}
	return []protocol.Envelope{{From: n.cfg.ID, To: from, Msg: reply}}
}

// onFastReply is steps 16–18: on YES, send the wanted entries; on NO, send
// nothing.
func (n *Node) onFastReply(now float64, from NodeID, m protocol.FastReply) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	if !m.Accept || len(m.Wanted) == 0 {
		return nil
	}
	entries := make([]wlog.Entry, 0, len(m.Wanted))
	for _, ts := range m.Wanted {
		if e, ok := n.log.Get(ts); ok {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return nil
	}
	n.stats.FastEntriesSent += uint64(len(entries))
	return []protocol.Envelope{{
		From: n.cfg.ID,
		To:   from,
		Msg:  protocol.FastPayload{Entries: entries, Demand: n.OwnDemand(now), Hops: m.Hops},
	}}
}

// onFastPayload applies fast-update entries — answered from an offer or
// pushed unasked — and continues the chain with what it gained (§2: "if the
// neighbour selected has another neighbour with even greater demand the
// process will be repeated") at an incremented hop count. Entries it already
// covers are dropped as duplicates; gaining none ends the chain.
func (n *Node) onFastPayload(now float64, from NodeID, m protocol.FastPayload) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	gained := n.absorb(m.Entries)
	n.noteArrival(gained, true)
	n.stats.FastEntriesGained += uint64(len(gained))
	return n.fastOffers(now, gained, m.Hops+1, from)
}

// onSnapshot adopts a full-state transfer: the summary is folded into the
// write log (marking the skipped ranges as truncated locally too) and the
// store image merges via normal LWW. Snapshot adoption closes the session
// and does not start fast-update chains — the receiver was so far behind
// that entry-level ids are no longer meaningful; its next sessions
// propagate onward.
func (n *Node) onSnapshot(now float64, from NodeID, m protocol.Snapshot) []protocol.Envelope {
	n.noteDemand(from, m.Demand, now)
	n.stats.SnapshotsReceived++
	n.log.Adopt(m.Summary)
	n.st.ApplySnapshot(m.Items)
	for _, item := range m.Items {
		if item.Clock > n.lamport {
			n.lamport = item.Clock
		}
	}
	if n.journal != nil {
		n.journal.JournalAdopt(m.Summary, m.Items, n.lamport)
	}
	n.closeSession(from, m.SessionID)
	return nil
}

// AbsorbItems merges a content-level store image (e.g. a shard handoff)
// via normal LWW resolution and advances the Lamport clock past every
// imported write, so subsequent local client writes supersede imported
// versions. Unlike onSnapshot this is not a protocol exchange: the write
// log and summary are untouched, because the imported items are content
// from a *different* replica group whose entry ids are meaningless here.
func (n *Node) AbsorbItems(items []store.Item) {
	n.st.ApplySnapshot(items)
	for _, item := range items {
		if item.Clock > n.lamport {
			n.lamport = item.Clock
		}
	}
	if n.journal != nil {
		n.journal.JournalAdopt(nil, items, n.lamport)
	}
}

// closeSession forgets session id with partner; a replaced one's tail, nothing.
func (n *Node) closeSession(partner NodeID, id uint64) {
	if n.initiated[partner] == id {
		delete(n.initiated, partner)
	}
	if n.accepted[partner] == id {
		delete(n.accepted, partner)
	}
}

// OpenSessions returns how many sessions the node is tracking, at most one per
// partner and role; it should return to 0 when the network quiesces.
func (n *Node) OpenSessions() int { return len(n.initiated) + len(n.accepted) }
