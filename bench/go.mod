module github.com/deltacache/delta/bench

go 1.24

require github.com/deltacache/delta v0.0.0

replace github.com/deltacache/delta => ../
