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
(defined)   T1
  E:link-change
  M:26:2
  M:12:1
  M:12:5
  M:12:6
  M:12:7
  M:12:8
  M:12:9
  M:31:1
  M:31:8
  M:31:14
  M:31:20
  M:12:10
  M:31:26
  M:31:32
  M:31:38
  M:31:44
  M:31:50
  M:12:11
  M:31:56
  M:31:62
  M:31:68
  M:31:74
  M:31:80
  M:31:86
  M:31:92
  M:31:98
  M:31:104
  M:12:12
  M:12:13
  M:12:14
  M:12:15
  M:12:16
  M:12:17
  M:31:116
  M:31:122
  M:31:128
  M:12:19
  M:31:134
  M:31:140
  M:12:20
  M:31:146
  M:31:152
  M:12:21
  M:31:158
  M:12:22
  M:12:23
  M:12:24
  M:31:164
  M:12:25
  M:31:170
  M:31:176
  M:12:26
  M:31:182
  M:12:27
  M:31:194
  M:31:200
  M:31:206
  M:31:212
  M:12:28
  M:31:218
  M:12:29
  M:31:224
  M:12:31
  M:31:230
  M:12:32
  M:12:33
  M:12:34
  M:12:36
  M:12:37
  M:12:38
  M:12:39
  M:31:236
  M:31:242
  M:12:40
  M:12:41
  M:31:248
  M:31:254
  M:12:42
  M:12:43
  M:12:44
  M:12:46
  M:31:260
  T2
  T3
  T4
  E:link-change
  M:12:47
  M:31:272
  M:26:146
  M:26:150
  M:26:151
  M:26:152
  M:26:153
  M:26:154
  M:26:155
  M:26:156
  M:26:157
  M:26:158
  M:26:159
  M:26:160
  M:26:161
  M:26:162
  M:26:163
  M:26:164
  M:26:165
  M:26:166
  M:26:167
  M:26:168
  M:26:169
  M:26:170
  M:26:171
  M:26:172
  M:26:173
  M:26:174
  M:26:175
  M:26:176
  M:26:177
  M:26:178
  M:26:179
  M:26:180
  M:26:181
  M:26:182
  M:26:183
  M:26:184
  M:26:185
  M:26:186
  M:26:187
  M:26:188
  M:26:189
  M:26:190
  M:26:191
  M:26:192
  M:31:279
  T5
  T6
  T7
  T8
  M:26:198
  M:12:51
  M:31:291
  T9
  T10
  T11
  T12
  M:26:203
  M:12:53
  M:31:298
(defined) bye

=== step-response summary (the paper's Figure 6c metric) ===
316 rounds, 8744 deliveries, worst step response 0.283s (paper: all under 1s)
`
