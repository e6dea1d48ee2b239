module nlarm/bench

go 1.22

require nlarm v0.0.0

replace nlarm => ../
