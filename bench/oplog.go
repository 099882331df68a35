package main

// The op stream: what the decorator saw on one recording rep, in global
// call order. The engine is deterministic, so this stream is exactly what
// every other rep of the same spec executes, and the isolated drivers in
// layers.go replay it into one package at a time. The recording rep runs
// on the sequential engine (the sharded one executes the same stream), so
// one log shared by all decorators needs no locking.

import (
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

type opKind uint8

const (
	opInit opKind = iota
	opMessage
	opTimer
	opExternal
	opEnable  // JournalEnable
	opMark    // arg = mark returned
	opRewind  // arg = target mark, arg2 = journal position before the rewind
	opCompact // arg = mark
	opClone   // arg = id of the new clone, arg2 = id of its source (0 = live state)
	opRestore // arg = id of the clone the application adopts
)

// op is one recorded call. Handler ops index their input in the side
// tables and their outputs' destinations in opLog.dests.
type op struct {
	node    msg.NodeID
	kind    opKind
	arg     uint64 // input index (init/message/external), virtual time (timer), or see opKind
	arg2    uint64
	destOff uint32
	dests   uint32
}

type initArgs struct {
	self      msg.NodeID
	neighbors []api.Neighbor
}

type opLog struct {
	ops       []op
	inits     []initArgs
	messages  []msg.Message // copies: the engine recycles the originals
	externals []api.ExternalEvent
	dests     []msg.NodeID
	nextClone int64
}

func (l *opLog) add(o op) { l.ops = append(l.ops, o) }

func (l *opLog) addHandler(o op, outs []msg.Out) {
	o.destOff, o.dests = uint32(len(l.dests)), uint32(len(outs))
	for _, out := range outs {
		l.dests = append(l.dests, out.To)
	}
	l.add(o)
}

func (l *opLog) init(node, self msg.NodeID, neighbors []api.Neighbor) {
	l.inits = append(l.inits, initArgs{self, append([]api.Neighbor(nil), neighbors...)})
	l.add(op{node: node, kind: opInit, arg: uint64(len(l.inits) - 1)})
}

func (l *opLog) message(node msg.NodeID, m *msg.Message, outs []msg.Out) {
	// Field by field: the pool bookkeeping of the original must not travel.
	l.messages = append(l.messages, msg.Message{
		ID: m.ID, From: m.From, To: m.To, Kind: m.Kind, Ann: m.Ann, LinkSeq: m.LinkSeq, Payload: m.Payload,
	})
	l.addHandler(op{node: node, kind: opMessage, arg: uint64(len(l.messages) - 1)}, outs)
}

func (l *opLog) timer(node msg.NodeID, now vtime.Time, outs []msg.Out) {
	l.addHandler(op{node: node, kind: opTimer, arg: uint64(now)}, outs)
}

func (l *opLog) external(node msg.NodeID, ev api.ExternalEvent, outs []msg.Out) {
	l.externals = append(l.externals, ev)
	l.addHandler(op{node: node, kind: opExternal, arg: uint64(len(l.externals) - 1)}, outs)
}

func (l *opLog) clone(node msg.NodeID, src int64) int64 {
	l.nextClone++
	l.add(op{node: node, kind: opClone, arg: uint64(l.nextClone), arg2: uint64(src)})
	return l.nextClone
}

func (l *opLog) restore(node msg.NodeID, id int64) {
	l.add(op{node: node, kind: opRestore, arg: uint64(id)})
}
