module harmony/benchmark

go 1.22

require harmony v0.0.0

replace harmony => ../
