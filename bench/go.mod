module graphitti/bench

go 1.24

require graphitti v0.0.0

replace graphitti => ../
