// Package debugger provides the interactive troubleshooting session on top
// of DEFINED-LS — the operator-facing piece of the paper's workflow (§2.1,
// §4): after observing a bug in production, the troubleshooter loads the
// partial recording into a debugging network and steps through execution,
// inspecting and manipulating state along the way.
//
// The session is a line-oriented command interpreter (gdb-flavored) so it
// can drive a terminal, a test, or a scripted example identically:
//
//	step [n]      deliver the next n events (default 1)
//	round         run to the end of the current lockstep round
//	group         run to the end of the current beacon group
//	continue      run to completion or the next breakpoint
//	break node N  break before any delivery at node N
//	break msg S   break before any message whose rendering contains S
//	clear         clear the breakpoint
//	pending       show the deliveries queued in this round
//	state N       dump node N's application state
//	where         show replay position (group, round, steps)
//	log N         show node N's delivery sequence so far, one ordering key
//	              a line: the strings production's Network.CommittedOrder(N)
//	              returns, so the two logs diff directly
//	quit          end the session
package debugger

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"defined/internal/lockstep"
	"defined/internal/msg"
)

// StateDumper lets applications expose their state to the debugger; the
// routing daemons implement it via DumpTable.
type StateDumper interface {
	DumpTable() string
}

// Session is one interactive debugging session.
type Session struct {
	ls  *lockstep.Engine
	in  *bufio.Scanner
	out io.Writer

	stepsRun int
}

// New creates a session reading commands from in and writing to out.
func New(ls *lockstep.Engine, in io.Reader, out io.Writer) *Session {
	return &Session{ls: ls, in: bufio.NewScanner(in), out: out}
}

// Run executes commands until quit or EOF. It returns the number of
// deliveries executed during the session.
func (s *Session) Run() int {
	fmt.Fprintf(s.out, "defined-ls debugger — %d nodes, group %d\n", s.ls.G.N, s.ls.CurrentGroup())
	for {
		fmt.Fprintf(s.out, "(defined) ")
		if !s.in.Scan() {
			return s.stepsRun
		}
		line := strings.TrimSpace(s.in.Text())
		if line == "" {
			continue
		}
		if !s.Execute(line) {
			return s.stepsRun
		}
	}
}

// Execute runs one command line; it returns false when the session ends.
// Empty and whitespace-only lines are a no-op (the session continues),
// matching Run's prompt behaviour — scripted sessions feed Execute
// directly and must not panic on a blank line.
func (s *Session) Execute(line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return true
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "q", "exit":
		fmt.Fprintln(s.out, "bye")
		return false
	case "step", "s":
		n := 1
		if len(args) > 0 {
			if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
				n = v
			}
		}
		s.step(n)
	case "round", "r":
		s.stepped(s.ls.StepRound())
	case "group", "g":
		s.stepped(s.ls.StepGroup())
	case "continue", "c":
		n := s.ls.RunToEnd()
		s.stepsRun += n
		if hit := s.ls.BreakpointHit(); hit != nil {
			fmt.Fprintf(s.out, "breakpoint: %s\n", hit)
		} else {
			fmt.Fprintf(s.out, "replay complete after %d more deliveries\n", n)
		}
	case "break", "b":
		s.setBreak(args)
	case "clear":
		s.ls.SetBreakpoint(nil)
		fmt.Fprintln(s.out, "breakpoint cleared")
	case "pending", "p":
		s.showPending()
	case "state", "st":
		s.showState(args)
	case "where", "w":
		s.reportPosition()
	case "log", "l":
		s.showLog(args)
	case "help", "h", "?":
		fmt.Fprintln(s.out, "commands: step round group continue break clear pending state where log quit")
	default:
		fmt.Fprintf(s.out, "unknown command %q (try help)\n", cmd)
	}
	return true
}

func (s *Session) step(n int) {
	for i := 0; i < n; i++ {
		d, ok := s.ls.StepEvent()
		if !ok {
			fmt.Fprintln(s.out, "replay complete")
			return
		}
		if hit := s.ls.BreakpointHit(); hit != nil {
			fmt.Fprintf(s.out, "breakpoint: %s\n", hit)
			return
		}
		s.stepsRun++
		fmt.Fprintf(s.out, "%s\n", d)
	}
}

// stepped counts a coarse step's n deliveries and reports where it left
// the replay (ok is false when nothing was left to replay).
func (s *Session) stepped(n int, ok bool) {
	s.stepsRun += n
	if !ok {
		fmt.Fprintln(s.out, "replay complete")
		return
	}
	s.reportPosition()
}

func (s *Session) setBreak(args []string) {
	if len(args) < 2 {
		fmt.Fprintln(s.out, "usage: break node <id> | break msg <substring>")
		return
	}
	switch args[0] {
	case "node":
		id, err := strconv.Atoi(args[1])
		if err != nil {
			fmt.Fprintf(s.out, "bad node id %q\n", args[1])
			return
		}
		target := msg.NodeID(id)
		s.ls.SetBreakpoint(func(d lockstep.Delivery) bool { return d.Node == target })
		fmt.Fprintf(s.out, "break on any delivery at node %d\n", id)
	case "msg":
		needle := strings.Join(args[1:], " ")
		s.ls.SetBreakpoint(func(d lockstep.Delivery) bool {
			return d.Msg != nil && strings.Contains(d.String(), needle)
		})
		fmt.Fprintf(s.out, "break on message matching %q\n", needle)
	default:
		fmt.Fprintln(s.out, "usage: break node <id> | break msg <substring>")
	}
}

func (s *Session) showPending() {
	p := s.ls.Pending()
	if len(p) == 0 {
		fmt.Fprintln(s.out, "nothing pending (phase boundary)")
		return
	}
	const shown = 20
	for i, d := range p[:min(len(p), shown)] {
		fmt.Fprintf(s.out, "%3d: %s\n", i, d)
	}
	if len(p) > shown {
		fmt.Fprintf(s.out, "     ... %d more\n", len(p)-shown)
	}
}

func (s *Session) showState(args []string) {
	if len(args) < 1 {
		fmt.Fprintln(s.out, "usage: state <node>")
		return
	}
	id, err := strconv.Atoi(args[0])
	if err != nil || id < 0 || id >= s.ls.G.N {
		fmt.Fprintf(s.out, "bad node id %q\n", args[0])
		return
	}
	app := s.ls.App(msg.NodeID(id))
	if d, ok := app.(StateDumper); ok {
		fmt.Fprintf(s.out, "node %d state:\n%s", id, d.DumpTable())
		return
	}
	fmt.Fprintf(s.out, "node %d: %+v\n", id, app.State())
}

func (s *Session) reportPosition() {
	fmt.Fprintf(s.out, "group %d round %d, %d pending, done=%v\n",
		s.ls.CurrentGroup(), s.ls.CurrentRound(), len(s.ls.Pending()), s.ls.Done())
}

func (s *Session) showLog(args []string) {
	if len(args) < 1 {
		fmt.Fprintln(s.out, "usage: log <node>")
		return
	}
	id, err := strconv.Atoi(args[0])
	if err != nil || id < 0 || id >= s.ls.G.N {
		fmt.Fprintf(s.out, "bad node id %q\n", args[0])
		return
	}
	keys := s.ls.DeliveredKeys(msg.NodeID(id))
	if len(keys) == 0 {
		fmt.Fprintf(s.out, "node %d: nothing delivered yet\n", id)
		return
	}
	for _, k := range keys {
		fmt.Fprintf(s.out, "  %s\n", k)
	}
}
