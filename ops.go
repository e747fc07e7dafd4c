package tinyevm

// The operation table: everything the service knows about a journaled
// operation kind is its opDef — the name it is journaled under, the
// locks it runs under and what it drains afterwards (its scope), and
// the one function that executes it. The public wrappers in service.go
// name a def; run takes the locks the scope asks for, journals the
// record and calls apply; recovery looks the def up by the journaled
// name and calls the same apply. Adding an operation is one defOp here
// plus its wrapper (plus one row in internal/rpc's method table).

import (
	"context"
	"fmt"

	"tinyevm/internal/protocol"
)

// opScope is what an operation touches, which decides its locks (run,
// lockStripes) and its epilogue (apply).
type opScope uint8

const (
	// scopeService: deployment-wide state, no acting node. Exclusive
	// service lock.
	scopeService opScope = iota
	// scopeChain: an on-chain transaction by the acting node. Exclusive
	// service lock; dispute bookkeeping is refreshed afterwards.
	scopeChain
	// scopeNode: the acting node's device only. Read lock + its stripe.
	scopeNode
	// scopePeerAddr and scopePeerChannel: the acting node and one
	// counterparty, named by rec.Peer or found behind rec.Channel. Read
	// lock + both stripes; the pair's inboxes are drained afterwards.
	scopePeerAddr
	scopePeerChannel
)

func (sc opScope) exclusive() bool { return sc == scopeService || sc == scopeChain }
func (sc opScope) pairwise() bool  { return sc == scopePeerAddr || sc == scopePeerChannel }

// opDef is the single definition of one operation kind. apply runs with
// the scope's locks held (or single-threaded during recovery); sn is
// the acting node, nil under scopeService.
type opDef struct {
	name  string
	scope opScope
	apply applyFunc
}

type applyFunc func(s *Service, sn *ServiceNode, rec *opRecord) (opResult, error)

// opByName is the table, keyed by journal name.
var opByName = map[string]*opDef{}

func defOp(name string, scope opScope, apply applyFunc) *opDef {
	if _, dup := opByName[name]; dup {
		panic("tinyevm: duplicate op " + name)
	}
	def := &opDef{name: name, scope: scope, apply: apply}
	opByName[name] = def
	return def
}

// opResult carries the typed results of apply back to the public
// wrappers; replay discards it.
type opResult struct {
	node    *ServiceNode
	channel ChannelState
	pay     *Payment
	fs      *FinalState
	receipt *Receipt
	data    *SensorData
	deploy  DeployResult
	call    CallResult
	lock    Hash
}

var (
	opAddNode = defOp("addNode", scopeService, func(s *Service, _ *ServiceNode, rec *opRecord) (res opResult, err error) {
		n, err := s.sys.AddNode(rec.Name)
		if err == nil {
			res.node = s.adopt(n)
		}
		return res, err
	})

	opRegisterSensor = defOp("registerSensorValue", scopeNode, func(s *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		reg := ckptSensor{Node: rec.Node, ID: rec.SensorID, Value: rec.Value}
		reg.install(sn)
		// Tracked for checkpoints; ops on other stripes append too.
		s.sensorMu.Lock()
		s.sensorRegs = append(s.sensorRegs, reg)
		s.sensorMu.Unlock()
		return res, nil
	})

	opOpenChannel = defOp("openChannel", scopePeerAddr, func(s *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		cs, err := sn.n.OpenChannel(rec.Peer.addr(), rec.Deposit, rec.SensorParam)
		if err != nil {
			return res, err
		}
		s.emit(Event{
			Type: EventChannelOpened, Node: sn.n.Name(),
			Channel: cs.ID, Peer: cs.Peer, Amount: cs.Deposit,
		})
		res.channel = *cs
		return res, nil
	})

	opPay = defOp("pay", scopePeerChannel, func(_ *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		res.pay, err = sn.n.Pay(rec.Channel, rec.Amount)
		return res, err
	})

	opPayConditional = defOp("payConditional", scopePeerChannel, func(_ *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		res.pay, err = sn.n.PayConditional(rec.Channel, rec.Amount, rec.Lock.hash())
		return res, err
	})

	opClaim = defOp("claim", scopePeerChannel, func(_ *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		secret, err := rec.Secret.secret()
		if err == nil {
			res.pay, err = sn.n.ClaimConditional(rec.Channel, secret)
		}
		return res, err
	})

	// close reads its result after the handshake, so it drains the pair
	// itself; a failed handshake is not a delivery failure but an
	// incomplete close.
	opClose = defOp("close", scopePeerChannel, func(s *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		if _, err := sn.n.CloseChannel(rec.Channel); err != nil {
			return res, err
		}
		errs := s.dispatch(s.pairOf(scopePeerChannel, rec, sn))
		if cs, ok := sn.n.Channel(rec.Channel); ok && cs.Final != nil {
			res.fs = cs.Final
			return res, nil
		}
		if len(errs) > 0 {
			return res, errs[0]
		}
		return res, ErrIncompleteClose
	})

	opReopen = defOp("reopen", scopePeerChannel, func(_ *Service, sn *ServiceNode, rec *opRecord) (opResult, error) {
		return opResult{}, sn.n.Reopen(rec.Channel)
	})

	opRoutePayment = defOp("routePayment", scopeService, (*Service).applyRoute)

	opSendSensorData = defOp("sendSensorData", scopePeerAddr, func(_ *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		res.data, err = sn.n.SendSensorReadings(rec.Peer.addr(), rec.Readings)
		return res, err
	})

	opDeposit = defOp("deposit", scopeChain, func(s *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		res.receipt, err = sn.n.DepositOnChain(s.txSender(), rec.Amount)
		return res, err
	})

	opCommit = defOp("commit", scopeChain, func(s *Service, sn *ServiceNode, rec *opRecord) (res opResult, err error) {
		fs, err := rec.Final.finalState()
		if err == nil {
			res.receipt, err = sn.n.CommitOnChain(s.txSender(), fs)
		}
		return res, err
	})

	opExit = defOp("exit", scopeChain, func(s *Service, sn *ServiceNode, _ *opRecord) (res opResult, err error) {
		res.receipt, err = sn.n.ExitOnChain(s.txSender())
		return res, err
	})

	opSettle = defOp("settle", scopeChain, func(s *Service, sn *ServiceNode, _ *opRecord) (res opResult, err error) {
		res.receipt, err = sn.n.SettleOnChain(s.txSender())
		return res, err
	})

	opMineBlock = defOp("mineBlock", scopeService, func(s *Service, _ *ServiceNode, _ *opRecord) (opResult, error) {
		if s.cluster != nil {
			if err := s.cluster.CheckProposerLocked(); err != nil {
				return opResult{}, err
			}
			s.cluster.ProduceBlockLocked()
		} else {
			s.sys.Chain.MineBlock()
		}
		return opResult{}, nil
	})

	opRunChallenge = defOp("runChallengePeriod", scopeService, func(s *Service, _ *ServiceNode, _ *opRecord) (opResult, error) {
		if s.cluster != nil {
			// Sealing a burst of blocks outside the leader schedule would
			// be rejected by every peer; the heartbeat miner advances
			// challenge periods instead.
			return opResult{}, fmt.Errorf("%w: RunChallengePeriod (let the heartbeat miner advance the chain)", ErrClusterOp)
		}
		return opResult{}, s.sys.RunChallengePeriod()
	})

	opDeployContract = defOp("deployContract", scopeNode, func(_ *Service, sn *ServiceNode, rec *opRecord) (opResult, error) {
		return opResult{deploy: sn.n.DeployContract(rec.Data)}, nil
	})

	opCallContract = defOp("callContract", scopeNode, func(_ *Service, sn *ServiceNode, rec *opRecord) (opResult, error) {
		return opResult{call: sn.n.CallContract(rec.Addr.addr(), rec.Data, rec.Value)}, nil
	})
)

// applyRoute is opRoutePayment's apply: a multi-hop payment under the
// recorded secret. It touches every hop, so it runs under the exclusive
// lock and sweeps every inbox itself.
func (s *Service) applyRoute(_ *ServiceNode, rec *opRecord) (res opResult, err error) {
	secret, err := rec.Secret.secret()
	if err != nil {
		return res, err
	}
	recv, ok := s.nodes[rec.Receiver]
	if !ok {
		return res, fmt.Errorf("%w: %q", ErrUnknownNode, rec.Receiver)
	}
	parties := make([]*ServiceNode, 0, len(rec.Steps)+1)
	hops := make([]protocol.RouteHop, 0, len(rec.Steps))
	for _, st := range rec.Steps {
		sn, ok := s.nodes[st.Node]
		if !ok {
			return res, fmt.Errorf("%w: %q", ErrUnknownNode, st.Node)
		}
		parties = append(parties, sn)
		hops = append(hops, protocol.RouteHop{From: sn.n.Party, ChannelID: st.Channel})
	}
	parties = append(parties, recv)

	res.lock, err = protocol.RoutePaymentWithSecret(hops, recv.n.Party, rec.Amount, rec.Fee, secret)
	if err != nil {
		s.dispatch(nil)
		return res, err
	}
	// The route consumed its wire messages lockstep internally, so
	// publish the per-hop events the normal dispatch path would have.
	for i, st := range rec.Steps {
		payer, payee := parties[i], parties[i+1]
		pcs, ok := payer.n.Channel(st.Channel)
		if !ok {
			continue
		}
		hopAmount := rec.Amount + uint64(len(rec.Steps)-1-i)*rec.Fee
		if rcs, ok := payee.n.Party.ChannelByOpener(pcs.Template, pcs.WireID, pcs.Opener); ok {
			s.emit(Event{
				Type: EventPaymentReceived, Node: payee.n.Name(),
				Channel: rcs.ID, Peer: rcs.Peer,
				Seq: rcs.Seq, Amount: hopAmount, Payment: rcs.LastPayment,
			})
		}
		s.emit(Event{
			Type: EventClaimSettled, Node: payer.n.Name(),
			Channel: pcs.ID, Peer: pcs.Peer,
			Seq: pcs.Seq, Payment: pcs.LastPayment,
		})
	}
	return res, firstErr(s.dispatch(nil))
}

// run executes one operation live: the locks def's scope asks for, the
// optional prepare hook (nondeterministic inputs captured into rec
// under those locks), the intent record, apply, then any persistence
// error the chain latched while sealing.
func (s *Service) run(ctx context.Context, def *opDef, rec *opRecord, prepare func() error) (opResult, error) {
	if err := ctx.Err(); err != nil {
		return opResult{}, err
	}
	rec.Op = def.name
	exclusive := def.scope.exclusive()
	if exclusive {
		s.mu.Lock()
		defer s.mu.Unlock()
	} else {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	if s.closed.Load() {
		return opResult{}, ErrServiceClosed
	}
	if !exclusive {
		lo, hi := s.lockStripes(def, rec)
		defer s.unlockStripes(lo, hi)
	}
	if prepare != nil {
		if err := prepare(); err != nil {
			return opResult{}, err
		}
	}
	if err := s.logOp(rec); err != nil {
		return opResult{}, err
	}
	res, err := s.apply(def, rec)
	if serr := s.sys.Chain.StoreErr(); serr != nil {
		return res, fmt.Errorf("tinyevm: persistence failed: %w", serr)
	}
	// Only exclusive ops seal blocks, so only they can trip the
	// checkpoint cadence. The op's own error wins the return.
	if exclusive {
		if cerr := s.maybeCheckpointLocked(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return res, err
}

// apply executes one operation under its locks. Live operations and
// recovery both come through here and through def.apply, so replay
// cannot drift from what ran: it resolves the acting node, runs the
// def, then delivers the wire traffic the operation produced. Every
// operation fully drains the messages it generates, so all inboxes are
// empty between operations and draining just the pair delivers exactly
// what a global sweep would.
func (s *Service) apply(def *opDef, rec *opRecord) (res opResult, err error) {
	var sn *ServiceNode
	if def.scope != scopeService {
		var ok bool
		if sn, ok = s.nodes[rec.Node]; !ok {
			return res, fmt.Errorf("%w: %q", ErrUnknownNode, rec.Node)
		}
	}
	res, err = def.apply(s, sn, rec)
	if def.scope == scopeChain {
		s.checkDisputes()
	} else if err == nil && def.scope.pairwise() {
		err = deliveryErr(s.dispatch(s.pairOf(def.scope, rec, sn)))
	}
	return res, err
}

// peerOf names the counterparty of a pairwise operation; ok is false
// for every other scope and for a channel the node does not have. It
// reads sn's channel table, so sn's stripe must be held.
func peerOf(scope opScope, rec *opRecord, sn *ServiceNode) (peer Address, ok bool) {
	if scope == scopePeerAddr {
		return rec.Peer.addr(), true
	}
	if scope == scopePeerChannel {
		if cs, found := sn.n.Channel(rec.Channel); found {
			return cs.Peer, true
		}
	}
	return peer, false
}

// pairOf is the dispatch scope of a pairwise operation: the acting
// node plus its counterparty when that is a registered node.
func (s *Service) pairOf(scope opScope, rec *opRecord, sn *ServiceNode) []*ServiceNode {
	pair := []*ServiceNode{sn}
	if peer, ok := peerOf(scope, rec, sn); ok {
		if pn, ok := s.byAddr[peer]; ok && pn != sn {
			pair = append(pair, pn)
		}
	}
	return pair
}
