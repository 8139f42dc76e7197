import sys
from abmv.cli import main
sys.exit(main())
