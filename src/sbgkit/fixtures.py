"""Small worked instances shared by the demos, the CLI and the test suite."""

from __future__ import annotations

# An unsatisfiable four-variable PB formula.  The last constraint allows at
# most one true variable while x1+x3 >= 1 and x2+x4 >= 1 force two.
EXAMPLE_UNSAT_OPB = """\
* #variable= 4 #constraint= 7
+1 x1 +1 x2 +1 x3 >= 1 ;
+1 x2 +2 x3 +3 x4 >= 3 ;
+2 x1 +1 x3 +2 x4 >= 2 ;
+1 x1 +1 x2 +1 x4 >= 1 ;
+1 x1 +1 x3 >= 1 ;
+1 x2 +1 x4 >= 1 ;
-1 x1 -1 x2 -1 x3 -1 x4 >= -1 ;
"""

# A cutting-planes refutation of the formula above.  Constraint ids count
# every producing line starting at 1: the 'u' line is id 1, the seven loads
# are ids 2..8, the derivations ids 9..14, and id 14 normalizes to 0 >= 1.
EXAMPLE_UNSAT_PROOF = """\
pseudo-Boolean proof version 1.0
u >= 0 ;
l 1
l 2
l 3
l 4
l 5
l 6
l 7
p 8 4 ~x3 + 2 d + 0
p 9 x3 + 0
p 9 x2 + 0
p 7 10 + 0
p 6 11 + 0
p 8 13 + x2 + x3 + 12 + 0
c 14 0
"""
