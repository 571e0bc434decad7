# Never halts: a run of this program ends only at its budget.
main:   addi r1, r1, 1
        j    main
