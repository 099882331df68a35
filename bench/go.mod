module defined/bench

go 1.24

require defined v0.0.0

replace defined => ../
