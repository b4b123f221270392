(** DML — a concrete syntax for the mini object language.

    The paper's transformation operates on Java source; DML is this
    repository's textual stand-in, so replicated classes can be written in
    files and fed to the CLI instead of being built with {!Builder}.  The
    grammar mirrors the AST one-to-one:

    {v
    class Counter {
      mutexfield lock = 7;
      statefield count;

      export final bump(1) {
        compute 5.0;
        v := arg 0;
        sync local v { count += 1; }
        if argbool 0 { nested 0 12.0; } else { }
        for 3 { sync this { count += 1; } }
        wait this;            // inside a sync on this
        waituntil this count >= 1;
        notifyall this;
        acquire arg 0; release arg 0;   // java.util.concurrent
        call helper;
        virtual arg 0 [ a b ];
      }

      helper final helper(0) { compute 1.0; }
    }
    v}

    Comments run from [//] to the end of the line.  {!print} emits canonical
    DML; [parse (print c) = Ok c] holds for every class (property-tested). *)

val parse : string -> (Class_def.t, string) result
(** Parse a class.  The error message carries the line number. *)

val print : Class_def.t -> string
(** Canonical DML text (a full round-trip inverse of {!parse}). *)
