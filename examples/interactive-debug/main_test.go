package main

import (
	"bytes"
	"testing"
)

// TestOutput pins the example's whole printed output, line for line.
// Every line is a count, a key or a virtual-time value, so the text is a
// function of the code alone: a changed replay order, a breakpoint that
// reports the wrong delivery, a lost step summary or a different routing
// table fails here.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	if got := out.String(); got != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", got, want)
	}
}

const want = `recording a failure scenario on sprintlink: 43 nodes, 102 links, mean delay 6.526ms...

production: 492214 deliveries, 13608 rollbacks; recorded 6 external events

=== scripted debugger session ===
defined-ls debugger — 43 nodes, group 0
(defined) group 0 round 0, 0 pending, done=false
(defined) node 0 ← timer batch g1
node 1 ← timer batch g1
node 2 ← timer batch g1
node 3 ← timer batch g1
node 4 ← timer batch g1
(defined)   0: node 5 ← timer batch g1
  1: node 6 ← timer batch g1
  2: node 7 ← timer batch g1
  3: node 8 ← timer batch g1
  4: node 9 ← timer batch g1
  5: node 10 ← timer batch g1
  6: node 11 ← timer batch g1
  7: node 12 ← timer batch g1
  8: node 13 ← timer batch g1
  9: node 14 ← timer batch g1
 10: node 15 ← timer batch g1
 11: node 16 ← timer batch g1
 12: node 17 ← timer batch g1
 13: node 18 ← timer batch g1
 14: node 19 ← timer batch g1
 15: node 20 ← timer batch g1
 16: node 21 ← timer batch g1
 17: node 22 ← timer batch g1
 18: node 23 ← timer batch g1
 19: node 24 ← timer batch g1
     ... 20 more
(defined) group 1 round 0, 0 pending, done=false
(defined) group 2 round 0, 43 pending, done=false
(defined) break on any delivery at node 2
(defined) breakpoint: node 2 ← timer batch g2
(defined) breakpoint cleared
(defined) node 2 state:
dest 0 via 12 cost 214
dest 1 via 31 cost 284
dest 3 via 31 cost 186
dest 4 via 31 cost 178
dest 5 via 31 cost 279
dest 6 via 31 cost 299
dest 7 via 31 cost 134
dest 8 via 12 cost 168
dest 9 via 12 cost 191
dest 10 via 31 cost 255
dest 11 via 31 cost 314
dest 12 via 12 cost 46
dest 13 via 31 cost 265
dest 14 via 12 cost 342
dest 15 via 31 cost 198
dest 16 via 31 cost 258
dest 17 via 12 cost 135
dest 18 via 12 cost 154
dest 19 via 31 cost 298
dest 20 via 31 cost 229
dest 21 via 31 cost 281
dest 22 via 31 cost 294
dest 23 via 31 cost 316
dest 24 via 31 cost 318
dest 25 via 31 cost 283
dest 26 via 12 cost 155
dest 27 via 31 cost 223
dest 28 via 31 cost 249
dest 29 via 31 cost 296
dest 30 via 31 cost 237
dest 31 via 31 cost 118
dest 32 via 31 cost 157
dest 33 via 31 cost 163
dest 34 via 31 cost 150
dest 35 via 31 cost 182
dest 36 via 31 cost 185
dest 37 via 12 cost 175
dest 38 via 31 cost 163
dest 39 via 31 cost 275
dest 40 via 31 cost 163
dest 41 via 31 cost 285
dest 42 via 31 cost 312
(defined) replay complete after 1493 more deliveries
(defined) group 12 round 38, 0 pending, done=true
(defined)   {timer g1 n2}
  {ext g1 n2 #0}
  {g1 d9.745ms o26 s1 f26 l0}
  {g1 d19.085ms o12 s0 f12 l0}
  {g1 d21.961ms o17 s2 f12 l1}
  {g1 d22.101ms o18 s4 f12 l2}
  {g1 d22.241ms o9 s4 f12 l3}
  {g1 d22.381ms o0 s0 f12 l4}
  {g1 d23.012ms o37 s6 f12 l5}
  {g1 d23.774ms o31 s0 f31 l0}
  {g1 d23.914ms o7 s2 f31 l1}
  {g1 d24.054ms o9 s2 f31 l2}
  {g1 d24.194ms o0 s0 f31 l3}
  {g1 d24.624ms o8 s1 f12 l6}
  {g1 d25.468ms o37 s7 f31 l4}
  {g1 d25.552ms o15 s1 f31 l5}
  {g1 d25.692ms o20 s2 f31 l6}
  {g1 d25.898ms o33 s1 f31 l7}
  {g1 d26.038ms o4 s3 f31 l8}
  {g1 d26.429ms o20 s0 f12 l7}
  {g1 d27.054ms o32 s1 f31 l9}
  {g1 d27.194ms o18 s5 f31 l10}
  {g1 d28.365ms o34 s0 f31 l11}
  {g1 d28.505ms o40 s2 f31 l12}
  {g1 d29.678ms o26 s4 f31 l13}
  {g1 d29.717ms o8 s1 f31 l14}
  {g1 d29.880ms o38 s1 f31 l15}
  {g1 d30.844ms o27 s0 f31 l16}
  {g1 d31.068ms o17 s6 f31 l17}
  {g1 d31.311ms o32 s2 f12 l8}
  {g1 d31.446ms o4 s2 f12 l9}
  {g1 d31.586ms o15 s0 f12 l10}
  {g1 d32.049ms o33 s2 f12 l11}
  {g1 d33.143ms o7 s3 f12 l12}
  {g1 d33.361ms o40 s1 f12 l13}
  {g1 d33.796ms o30 s2 f31 l18}
  {g1 d35.163ms o28 s6 f31 l19}
  {g1 d36.033ms o3 s3 f31 l20}
  {g1 d36.231ms o34 s2 f12 l14}
  {g1 d36.685ms o10 s1 f31 l21}
  {g1 d36.714ms o35 s3 f31 l22}
  {g1 d36.878ms o27 s0 f12 l15}
  {g1 d37.488ms o36 s0 f31 l23}
  {g1 d37.843ms o21 s3 f31 l24}
  {g1 d37.999ms o38 s2 f12 l16}
  {g1 d38.282ms o16 s4 f31 l25}
  {g1 d39.420ms o28 s6 f12 l17}
  {g1 d39.623ms o21 s0 f12 l18}
  {g1 d39.830ms o30 s2 f12 l19}
  {g1 d40.699ms o39 s4 f31 l26}
  {g1 d40.942ms o10 s1 f12 l20}
  {g1 d41.471ms o19 s1 f31 l27}
  {g1 d41.536ms o13 s1 f31 l28}
  {g1 d42.450ms o16 s5 f12 l21}
  {g1 d42.680ms o1 s0 f31 l29}
  {g1 d43.251ms o19 s1 f12 l22}
  {g1 d43.482ms o25 s2 f31 l30}
  {g1 d43.582ms o29 s2 f31 l31}
  {g1 d44.436ms o5 s2 f31 l32}
  {g1 d44.889ms o11 s2 f31 l33}
  {g1 d44.956ms o39 s4 f12 l23}
  {g1 d45.091ms o23 s1 f31 l34}
  {g1 d45.133ms o3 s0 f12 l24}
  {g1 d45.754ms o41 s2 f31 l35}
  {g1 d46.669ms o11 s2 f12 l25}
  {g1 d46.770ms o6 s1 f31 l36}
  {g1 d46.871ms o23 s1 f12 l26}
  {g1 d46.944ms o13 s1 f12 l27}
  {g1 d47.022ms o1 s1 f12 l28}
  {g1 d47.430ms o5 s0 f12 l29}
  {g1 d47.650ms o25 s2 f12 l30}
  {g1 d48.461ms o6 s0 f12 l31}
  {g1 d48.497ms o29 s0 f12 l32}
  {g1 d48.588ms o22 s0 f31 l37}
  {g1 d49.297ms o42 s1 f31 l38}
  {g1 d49.849ms o41 s0 f12 l33}
  {g1 d50.386ms o14 s1 f12 l34}
  {g1 d51.921ms o14 s0 f31 l39}
  {g1 d53.486ms o24 s2 f31 l40}
  {g1 d55.085ms o22 s2 f12 l35}
  {g1 d55.794ms o42 s1 f12 l36}
  {g1 d57.752ms o24 s1 f12 l37}
  {g1 d166.122ms o26 s7 f12 l38}
  {g1 d173.038ms o26 s8 f31 l41}
  {timer g2 n2}
  {timer g3 n2}
  {timer g4 n2}
  {ext g4 n2 #0}
  {g4 d19.085ms o12 s2 f12 l39}
  {g4 d23.774ms o31 s7 f31 l42}
  {g4 d203.105ms o26 s15 f26 l2}
  {g4 d203.105ms o26 s19 f26 l3}
  {g4 d203.105ms o26 s20 f26 l4}
  {g4 d203.105ms o26 s21 f26 l5}
  {g4 d203.105ms o26 s22 f26 l6}
  {g4 d203.105ms o26 s23 f26 l7}
  {g4 d203.105ms o26 s24 f26 l8}
  {g4 d203.105ms o26 s25 f26 l9}
  {g4 d203.105ms o26 s26 f26 l10}
  {g4 d203.105ms o26 s27 f26 l11}
  {g4 d203.105ms o26 s28 f26 l12}
  {g4 d203.105ms o26 s29 f26 l13}
  {g4 d203.105ms o26 s30 f26 l14}
  {g4 d203.105ms o26 s31 f26 l15}
  {g4 d203.105ms o26 s32 f26 l16}
  {g4 d203.105ms o26 s33 f26 l17}
  {g4 d203.105ms o26 s34 f26 l18}
  {g4 d203.105ms o26 s35 f26 l19}
  {g4 d203.105ms o26 s36 f26 l20}
  {g4 d203.105ms o26 s37 f26 l21}
  {g4 d203.105ms o26 s38 f26 l22}
  {g4 d203.105ms o26 s39 f26 l23}
  {g4 d203.105ms o26 s40 f26 l24}
  {g4 d203.105ms o26 s41 f26 l25}
  {g4 d203.105ms o26 s42 f26 l26}
  {g4 d203.105ms o26 s43 f26 l27}
  {g4 d203.105ms o26 s44 f26 l28}
  {g4 d203.105ms o26 s45 f26 l29}
  {g4 d203.105ms o26 s46 f26 l30}
  {g4 d203.105ms o26 s47 f26 l31}
  {g4 d203.105ms o26 s48 f26 l32}
  {g4 d203.105ms o26 s49 f26 l33}
  {g4 d203.105ms o26 s50 f26 l34}
  {g4 d203.105ms o26 s51 f26 l35}
  {g4 d203.105ms o26 s52 f26 l36}
  {g4 d203.105ms o26 s53 f26 l37}
  {g4 d203.105ms o26 s54 f26 l38}
  {g4 d203.105ms o26 s55 f26 l39}
  {g4 d203.105ms o26 s56 f26 l40}
  {g4 d203.105ms o26 s57 f26 l41}
  {g4 d203.105ms o26 s58 f26 l42}
  {g4 d203.105ms o26 s59 f26 l43}
  {g4 d203.105ms o26 s60 f26 l44}
  {g4 d203.105ms o26 s61 f26 l45}
  {g4 d223.038ms o26 s18 f31 l43}
  {timer g5 n2}
  {timer g6 n2}
  {timer g7 n2}
  {timer g8 n2}
  {g8 d9.745ms o26 s63 f26 l46}
  {g8 d19.085ms o12 s4 f12 l40}
  {g8 d23.774ms o31 s14 f31 l44}
  {timer g9 n2}
  {timer g10 n2}
  {timer g11 n2}
  {timer g12 n2}
  {g12 d9.745ms o26 s68 f26 l47}
  {g12 d19.085ms o12 s6 f12 l41}
  {g12 d23.774ms o31 s21 f31 l45}
(defined) bye

=== step-response summary (the paper's Figure 6c metric) ===
316 rounds, 8744 deliveries, worst step response 0.283s (paper: all under 1s)
`
