module groupkey/bench

go 1.22

require groupkey v0.0.0

replace groupkey => ../
